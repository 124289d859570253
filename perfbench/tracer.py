"""Spans and counts at the boundaries of the package's layers.

`traced(tracer)` replaces every public function of each layer module,
wherever a `sandpiles` module has bound it (callers bind names with
`from .x import f`), by a wrapper that opens a span around the call, and
puts the originals back on exit.  Spans are kept in memory as columns and
written out by `write_spans` when the run ends.
"""

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Layer modules under src/sandpiles/.  blocks is counted with formulas;
# temperley is not reached by any CLI command.
MODULES = ("cli", "graphs", "linalg", "symmetry", "engine", "formulas", "blocks",
           "tilings")
LAYERS = ("cli", "graphs", "linalg", "symmetry", "engine", "formulas", "tilings")
LAYER_OF = {m: ("formulas" if m == "blocks" else m) for m in MODULES}


class Tracer:
    """Nested spans with online self time and per-boundary counts.

    A span's self time is its duration minus the time its child spans
    cover.  Totals (`self_s`, `calls`, `counts`, `maxima`) accumulate
    until `reset_totals`; the span table keeps every span of the run.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.op = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, start, child seconds]
        self.reset_totals()

    def reset_totals(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.excluded_s = 0.0

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        start = self.clock()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, start, 0.0])

    def end(self):
        end = self.clock()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        name = self.names[self.span_name[idx]]
        self.self_s[name] += end - start - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += end - start

    def exclude(self, seconds):
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def write_spans(self, path, op_names):
        """One line per span: op, op name, span, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("op\top_name\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                op = self.span_op[i]
                fh.write(f"{op}\t{op_names.get(op, '')}\t{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")


# --- counts taken at span boundaries ---


def seam_subsets(board):
    """2^w, w the wrap (non-adjacent) edges of a grid-shaped board: the
    number of plain-grid DP passes `count_matchings` makes for it."""
    wraps = sum(1 for (r1, c1), (r2, c2) in board.edges
                if abs(r1 - r2) + abs(c1 - c2) != 1)
    return 2**wraps


def _count_matchings(t, args, result, pre):
    board = args[0]
    t.note_max("tilings.board_cells_max", len(board.vertices))
    t.counts["tilings.seam_subsets"] += seam_subsets(board)


def _det_int(t, args, result, pre):
    n = len(args[0])
    t.note_max("linalg.det_int.dim_max", n)
    t.note_max("linalg.det_int.bits_max", abs(result).bit_length())
    t.counts["linalg.bareiss_ops"] += n**3 // 3


def _solve_exact(t, args, result, pre):
    n = len(args[0])
    t.note_max("linalg.solve_exact.dim_max", n)
    t.counts["linalg.bareiss_ops"] += n**3 // 3


def _symmetrized_laplacian(t, args, result, pre):
    t.counts["symmetry.dense_entries"] += args[0].vertex_count ** 2


def _enumerate_pre(t, args):
    return t.calls["engine.is_recurrent"]


def _enumerate(t, args, result, pre):
    t.counts["symmetry.enumerate.candidates"] += t.calls["engine.is_recurrent"] - pre
    t.counts["symmetry.enumerate.hits"] += len(result)


def _stabilize(t, args, result, pre):
    t.counts["engine.topplings"] += sum(result[1])


def _reduced_laplacian(t, args, result, pre):
    t.counts["graphs.reduced_laplacian.entries"] += args[0].vertex_count ** 2


HOOKS = {
    "tilings.count_matchings": (None, _count_matchings),
    "linalg.det_int": (None, _det_int),
    "linalg.solve_exact": (None, _solve_exact),
    "symmetry.symmetrized_laplacian": (None, _symmetrized_laplacian),
    "symmetry.enumerate_symmetric_recurrents": (_enumerate_pre, _enumerate),
    "engine.stabilize": (None, _stabilize),
    "graphs.reduced_laplacian": (None, _reduced_laplacian),
}


def _wrap(tracer, name, fn, precision_error):
    pre_hook, post_hook = HOOKS.get(name, (None, None))
    clock = tracer.clock

    def wrapper(*args, **kwargs):
        pre = pre_hook(tracer, args) if pre_hook else None
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except precision_error:
            tracer.counts["formulas.precision_errors"] += 1
            raise
        finally:
            tracer.end()
        if post_hook:
            start = clock()
            post_hook(tracer, args, result, pre)
            tracer.exclude(clock() - start)
        return result

    return wrapper


def _public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


@contextmanager
def traced(tracer):
    """Wrap the layers' public functions for the duration of the block."""
    from sandpiles.errors import PrecisionError

    wrappers = {}
    for mod in MODULES:
        for name, fn in _public_functions(sys.modules[f"sandpiles.{mod}"]).items():
            # Only the closed forms raise PrecisionError; counting it there
            # alone keeps the callers' spans from counting it again.
            caught = PrecisionError if mod == "formulas" else ()
            wrappers[fn] = _wrap(tracer, f"{mod}.{name}", fn, caught)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname == "sandpiles" or modname.startswith("sandpiles."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def layer_self_s(tracer):
    """Self seconds per layer, summed over the layer's spans."""
    out = Counter({layer: 0.0 for layer in LAYERS})
    for name, seconds in tracer.self_s.items():
        out[LAYER_OF[name.split(".", 1)[0]]] += seconds
    return out

