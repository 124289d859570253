"""The benchmark's workloads, their exact references, and output checks.

Each workload is a list of CLI requests (ops).  An op's check reads what
`sandpiles.cli.main` printed and returns None when every value is right,
or a short reason when one is not.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import exact

REFERENCES = Path(__file__).with_name("references.json")

# (label, rows, cols); for verify the two numbers are --max-m and --max-n.
WORKLOADS = {
    "verify": [
        ("verify", 2, 2), ("verify", 3, 3), ("verify", 4, 4), ("verify", 5, 2),
    ],
    "count": [
        ("det", 24, 24), ("det", 31, 33), ("det", 32, 32), ("det", 40, 40),
        ("product", 10, 10), ("product", 10, 9),
        ("chebyshev", 10, 10), ("chebyshev", 11, 10),
        ("tilings", 12, 12), ("tilings", 11, 12),
        ("all", 4, 6), ("all", 8, 4),
    ],
    "order": [
        ("all-twos", 16, 16), ("all-twos", 20, 20), ("all-ones", 12, 12),
        ("identity", 48, 48), ("a-seq", 20, 20),
    ],
}

# The largest op of each workload, where a complexity-class change shows.
TOP_RUNG = {"verify": "verify 4x4", "count": "det 40x40", "order": "all-twos 20x20"}

COUNT_METHODS = ("det", "enumerate", "product", "chebyshev", "tilings")

# Known defect: the float closed forms print wrong counts from about
# 11x10 on.  `count` sends them only at the largest sizes they still get
# right, so that no op of a workload fails; the traced run asks for these
# sizes instead and reports how many come out wrong, so the defect stays
# in view until the closed forms are exact.
CLOSED_FORM_PROBES = [("product", 16, 16), ("product", 24, 23),
                      ("chebyshev", 16, 16), ("chebyshev", 25, 25)]


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[str], Optional[str]]


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _json(stdout):
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _mismatch(got, want, what):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def verify_cells(max_m, max_n):
    """Row keys `verify --max-m M --max-n N` prints, in print order."""
    keys = [f"{kind}/{m}/{n}" for m in range(1, max_m + 1)
            for n in range(1, max_n + 1)
            for kind in ("even_even", "even_odd", "odd_odd")]
    return keys + [f"staircase/{n}/{n}" for n in range(1, min(max_n, 6) + 1)]


def _check_verify(refs, max_m, max_n):
    want_keys = verify_cells(max_m, max_n)

    def check(stdout):
        rows = [json.loads(line) for line in stdout.strip().splitlines()]
        got_keys = [f"{r['kind']}/{r['m']}/{r['n']}" for r in rows]
        if got_keys != want_keys:
            return f"verify rows: got {len(got_keys)}, want {len(want_keys)}"
        for key, row in zip(want_keys, rows):
            if row.get("agree") is not True:
                return f"verify {key}: agree is {row.get('agree')!r}"
            for name, value in refs["verify_rows"][key].items():
                reason = _mismatch(row["values"].get(name), value, f"{key} {name}")
                if reason:
                    return reason
        return None

    return check


def _check_count(refs, method, rows, cols):
    want = refs["symmetric_counts"][f"{rows}x{cols}"]

    def check(stdout):
        out = _json(stdout)
        if method != "all":
            return _mismatch(out.get("value"), want, f"{method} {rows}x{cols}")
        for name in COUNT_METHODS:
            reason = _mismatch(out["values"].get(name), want, f"all/{name}")
            if reason:
                return reason
        return _mismatch(out.get("agree"), True, "agree")

    return check


def _check_order(refs, config, rows, cols):
    want = refs["orders"][f"{config}/{rows}x{cols}"]

    def check(stdout):
        out = _json(stdout)
        for name, value in want.items():
            reason = _mismatch(out.get(name), value, name)
            if reason:
                return reason
        return None

    return check


def read_pgm(path):
    tokens = Path(path).read_text().split()
    if tokens[0] != "P2":
        raise ValueError("not a plain PGM file")
    cols, rows = int(tokens[1]), int(tokens[2])
    cells = [int(t) for t in tokens[4:]]
    if len(cells) != rows * cols:
        raise ValueError("PGM size does not match its header")
    return [cells[r * cols:(r + 1) * cols] for r in range(rows)]


def _check_identity(refs, rows, cols, out_path):
    want = refs["identity"][f"{rows}x{cols}"]["sha256"]

    def check(stdout):
        _json(stdout)
        grid = read_pgm(out_path)
        Path(out_path).unlink()  # so a later op cannot pass on a stale image
        return _mismatch(exact.grid_digest(grid), want, "identity sha256")

    return check


def _check_a_seq(refs, n):
    want = refs["a_seq"][str(n)]

    def check(stdout):
        out = _json(stdout)
        return (_mismatch(out.get("values"), want, "a-seq values")
                or _mismatch(out.get("all_odd"), True, "all_odd"))

    return check


def build_ops(workload, rng, refs, out_dir):
    """The ops of a workload.  For a non-square grid the seeded rng fixes
    which of rows x cols or cols x rows is sent; op names keep the listed
    orientation so they are the same under every seed."""
    ops = []
    for label, a, b in WORKLOADS[workload]:
        name = f"{label} {a}x{b}"
        rows, cols = (b, a) if a != b and rng.random() < 0.5 else (a, b)
        if label == "verify":
            # max_m and max_n select which cells are verified; swapping
            # them asks for a different matrix, so they are never swapped.
            argv = ["verify", "--max-m", str(a), "--max-n", str(b)]
            check = _check_verify(refs, a, b)
        elif label in ("all-twos", "all-ones"):
            argv = ["order", "--rows", str(rows), "--cols", str(cols),
                    "--config", label]
            check = _check_order(refs, label, rows, cols)
        elif label == "identity":
            out_path = str(Path(out_dir) / f"identity-{rows}x{cols}.pgm")
            argv = ["identity", "--rows", str(rows), "--cols", str(cols),
                    "--out", out_path]
            check = _check_identity(refs, rows, cols, out_path)
        elif label == "a-seq":
            argv = ["a-seq", "--n", str(a)]
            check = _check_a_seq(refs, a)
        else:
            argv = ["count-symmetric", "--rows", str(rows), "--cols", str(cols),
                    "--method", label]
            check = _check_count(refs, label, rows, cols)
        ops.append(Op(name, argv, check))
    return ops


def closed_form_wrong(closed_form_count):
    """How many of CLOSED_FORM_PROBES `closed_form_count` gets wrong
    against the block recurrence in `exact`.  A PrecisionError is the
    guard refusing a value, not a wrong count."""
    from sandpiles.errors import PrecisionError

    wrong = 0
    for form, rows, cols in CLOSED_FORM_PROBES:
        parity, m, n = exact.parity_class(rows, cols)
        try:
            value = closed_form_count(parity, m, n, form)
        except PrecisionError:
            continue
        wrong += value != exact.symmetric_count(parity, m, n)
    return wrong


class BadReference(Exception):
    """A reference value disagrees with its independent exact derivation."""


def _require(ok, what):
    if not ok:
        raise BadReference(what)


def _check_staircase(n, values):
    twice = exact.symmetric_count("even_even", n, n)
    _require(2**n * values["a_n"] ** 2 == twice, f"staircase {n}: 2^n a_n^2")
    _require(values.get("tilings_2n", twice) == twice, f"staircase {n}: tilings")
    order = values["order_two_grid"]
    _require(exact.grid_group_order(2 * n, 2 * n) % order == 0,
             f"staircase {n}: order does not divide the group order")
    _require(all(v for v in values.values() if isinstance(v, bool)),
             f"staircase {n}: a recorded check is false")


def validate_references(refs, workload):
    """Cross-check every reference the workload uses against the exact
    derivations in `exact`; raise BadReference on the first mismatch."""
    for label, a, b in WORKLOADS[workload]:
        if label == "verify":
            for key in verify_cells(a, b):
                kind, m, n = key.split("/")
                values = refs["verify_rows"][key]
                if kind == "staircase":
                    _check_staircase(int(n), values)
                    continue
                want = exact.symmetric_count(kind, int(m), int(n))
                _require(all(v == want for v in values.values()),
                         f"verify {key} disagrees with the block recurrence")
        elif label in ("all-twos", "all-ones"):
            group = exact.grid_group_order(a, b)
            for rows, cols in {(a, b), (b, a)}:
                ref = refs["orders"][f"{label}/{rows}x{cols}"]
                _require(group % ref["order"] == 0,
                         f"{label} {rows}x{cols}: order does not divide {group}")
                if "ratio" in ref:
                    _require(ref["all_twos_order"] * ref["ratio"] == ref["order"],
                             f"{label} {rows}x{cols}: ratio")
        elif label == "identity":
            ref = refs["identity"][f"{a}x{b}"]
            grid = [[int(ch) for ch in row] for row in ref["grid"]]
            _require(exact.grid_digest(grid) == ref["sha256"], "identity digest")
            _require(exact.is_grid_identity(grid), "identity is not the group identity")
        elif label == "a-seq":
            for n, an in enumerate(refs["a_seq"][str(a)], start=1):
                _require(2**n * an**2 == exact.symmetric_count("even_even", n, n),
                         f"a-seq {n}: 2^n a_n^2")
        else:
            want = exact.symmetric_count(*exact.parity_class(a, b))
            for rows, cols in {(a, b), (b, a)}:
                _require(refs["symmetric_counts"][f"{rows}x{cols}"] == want,
                         f"count {rows}x{cols} disagrees with the block recurrence")
