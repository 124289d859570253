"""Benchmark of the `sandpiles` command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 42 --trace 0

One closed-loop client in one process: each op of the workload goes
through `sandpiles.cli.main(argv)` in process with stdout captured, and is
checked against the exact references before the next is sent.  Passes
over the op list repeat while one more, as long as the median so far,
still fits in --seconds.
With --trace 0 the last line of stdout is a JSON object of the end-to-end
metrics; with --trace 1 the layers' public functions are wrapped and it
holds the per-layer metrics instead.  See README.md in this directory.
"""

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

import exact
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 15
MIN_PASSES = 2
# Machine speed on shared hosts drifts by 20% and more within minutes, so
# times are rescaled to a reference speed.  A calibration kernel (a
# Bareiss determinant from `exact`, independent of the package) runs
# CAL_RUNS times before each op and after the last one, and every time of
# a pass is divided by the pass's slowdown: the kernel's median time over
# CAL_REF_S, its time in the faster spells of the 2-core VM (Python
# 3.11.7) where the baseline was taken.  One factor per pass, from all of
# its kernel timings, follows drift between passes without adding the
# kernel's own noise to each op.
CAL_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + (12 if i == j else 0) for j in range(24)]
              for i in range(24)]
CAL_REF_S = 0.0008
CAL_RUNS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import sandpiles.cli as cli; cli.build_parser()")


def import_cli():
    """Import `sandpiles.cli` from this checkout's src/ and nowhere else."""
    if not (SRC / "sandpiles" / "cli.py").is_file():
        raise SystemExit(f"no sandpiles sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sandpiles import cli

    if Path(cli.__file__).resolve().parent != SRC / "sandpiles":
        raise SystemExit(f"imported sandpiles from {cli.__file__}, not {SRC}")
    return cli


class Calibration:
    """Kernel timings gathered since the last `slowdown()`."""

    def __init__(self):
        self.times = []

    def sample(self):
        for _ in range(CAL_RUNS):
            start = time.perf_counter()
            exact.det(CAL_MATRIX)
            self.times.append(time.perf_counter() - start)

    def slowdown(self):
        """Median kernel time over the reference time; starts a new window."""
        self.sample()
        factor = median(self.times) / CAL_REF_S
        self.times = []
        return factor


def measure_setup(cal, samples=SETUP_SAMPLES):
    """Median seconds, at reference speed, from starting a fresh
    interpreter to a built parser."""
    times = []
    for _ in range(samples):
        cal.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return median(times) / cal.slowdown()


def run_op(main, op):
    """Run one op; return (seconds, failure or None, stdout bytes).
    Checking the output is not timed.

    The failure names the first way the op went wrong: it raised, it
    exited non-zero, or it printed a value that differs from the reference.
    """
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failure, not a stop
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", 0
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    if rc != 0:
        return seconds, f"exit {rc}", len(stdout.encode())
    try:
        wrong = op.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            OSError) as exc:
        wrong = f"unreadable output: {type(exc).__name__}: {exc}"
    return seconds, (f"wrong {wrong}" if wrong else None), len(stdout.encode())


def run_pass(cal, main, ops, rng, tracer=None, first_op_id=0):
    """One pass over the ops in a seeded order; returns its record and
    the order.  `wall` and `times` are at reference speed, `raw_wall` is
    the pass's measured seconds."""
    order = list(ops)
    rng.shuffle(order)
    raw = {}
    record = {"failures": [], "stdout_bytes": 0}
    for i, op in enumerate(order):
        gc.collect()
        cal.sample()
        if tracer:
            tracer.op = first_op_id + i
        raw[op.name], failure, nbytes = run_op(main, op)
        record["stdout_bytes"] += nbytes
        if failure:
            record["failures"].append(f"{op.name}: {failure}")
    slowdown = cal.slowdown()
    record["raw_wall"] = sum(raw.values())
    record["wall"] = record["raw_wall"] / slowdown
    record["times"] = {name: seconds / slowdown for name, seconds in raw.items()}
    return record, order


def run_passes(cal, main, ops, rng, seconds, min_passes):
    """Passes until one as long as the median so far would end after
    `seconds` (at least `min_passes`).  The median rather than the longest
    pass, so that one slow pass does not cost the run a sample; a run may
    end that much less than a pass after `seconds`."""
    start = time.perf_counter()
    records, durations = [], []
    while True:
        pass_start = time.perf_counter()
        records.append(run_pass(cal, main, ops, rng)[0])
        now = time.perf_counter()
        durations.append(now - pass_start)
        if len(records) >= min_passes and now - start + median(durations) > seconds:
            return records


def report_failures(records):
    failures = [f for r in records for f in r["failures"]]
    for line in sorted(set(failures)):
        print(f"FAILED {line}", file=sys.stderr)
    return len(failures)


def end_to_end(cal, workload, main, ops, rng, seconds):
    start = time.perf_counter()
    setup_s = measure_setup(cal)
    records = run_passes(cal, main, ops, rng, seconds - (time.perf_counter() - start),
                         MIN_PASSES)
    attempted = len(ops) * len(records)
    failed = report_failures(records)
    top = workloads.TOP_RUNG[workload]
    metrics = {
        "wall_s": (median(r["wall"] for r in records), "s"),
        "top_rung_s": (median(r["times"][top] for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{workload}: {len(records)} passes of {len(ops)} ops, "
          f"fail_frac {failed}/{attempted} = {failed / attempted:.4f} ratio, "
          f"measured wall_s {median(r['raw_wall'] for r in records)!r} s")
    return attempted, failed, metrics


# per-layer metric -> span whose self time it shares out
SHARE_SPANS = {
    "tilings.count_matchings": "tilings.count_matchings",
    "linalg.det_int": "linalg.det_int",
    "linalg.solve_exact": "linalg.solve_exact",
    "engine.config_order": "engine.config_order",
    "symmetry.symmetrized_laplacian": "symmetry.symmetrized_laplacian",
    "symmetry.enumerate": "symmetry.enumerate_symmetric_recurrents",
    "engine.stabilize": "engine.stabilize",
    "engine.identity_config": "engine.identity_config",
    "formulas.block_tridiag_det": "formulas.block_tridiag_det",
    "formulas.closed_form_count": "formulas.closed_form_count",
    "formulas.lu_wu_count": "formulas.lu_wu_count",
}
CALLS = ("tilings.count_matchings", "linalg.det_int", "linalg.solve_exact",
         "symmetry.symmetrized_laplacian", "engine.is_recurrent", "engine.stabilize")
MAXIMA = ("tilings.board_cells_max", "linalg.det_int.dim_max",
          "linalg.det_int.bits_max", "linalg.solve_exact.dim_max")
COUNTS = ("tilings.seam_subsets", "linalg.bareiss_ops", "symmetry.dense_entries",
          "symmetry.enumerate.candidates", "engine.topplings",
          "graphs.reduced_laplacian.entries", "formulas.precision_errors")


def layer_stats(tracer, record):
    """The per-layer figures of one traced pass."""
    from tracer import layer_self_s

    wall = record["raw_wall"]
    stats = {f"{layer}.self_share": (s / wall, "ratio")
             for layer, s in layer_self_s(tracer).items()}
    for metric, span in SHARE_SPANS.items():
        stats[f"{metric}.self_share"] = (tracer.self_s[span] / wall, "ratio")
    for name in CALLS:
        stats[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in MAXIMA:
        stats[name] = (tracer.maxima[name], "count")
    for name in COUNTS:
        stats[name] = (tracer.counts[name], "count")
    candidates = tracer.counts["symmetry.enumerate.candidates"]
    hits = tracer.counts["symmetry.enumerate.hits"]
    stats["symmetry.enumerate.hit_ratio"] = (hits / candidates if candidates else 0.0,
                                             "ratio")
    stats["cli.stdout_bytes"] = (record["stdout_bytes"], "bytes")
    stats["trace.wall_s"] = (record["wall"], "s")
    return stats


def per_layer(cal, workload, main, ops, rng, seconds, trace_path):
    """Untraced and traced passes in turn; per-layer medians over the
    traced ones, and the tracing overhead as the difference of the
    two kinds' median pass times."""
    from tracer import Tracer, traced

    tracer = Tracer()
    records, per_pass, op_names = [], [], {}
    start, durations = time.perf_counter(), []
    while True:
        pair_start = time.perf_counter()
        records.append(run_pass(cal, main, ops, rng)[0])
        with traced(tracer):
            record, order = run_pass(cal, main, ops, rng, tracer, len(op_names))
        records.append(record)
        op_names.update({len(op_names) + i: op.name for i, op in enumerate(order)})
        per_pass.append(layer_stats(tracer, record))
        tracer.reset_totals()
        now = time.perf_counter()
        durations.append(now - pair_start)
        if len(per_pass) >= MIN_PASSES and now - start + median(durations) > seconds:
            break
    tracer.write_spans(trace_path, op_names)
    attempted = len(ops) * len(records)
    failed = report_failures(records)
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        metrics[name] = (median_low(values) if unit in ("count", "bytes")
                         else median(values), unit)
    untraced_wall = median(r["wall"] for r in records[::2])
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    from sandpiles.formulas import closed_form_count

    metrics["formulas.closed_form.wrong"] = (
        workloads.closed_form_wrong(closed_form_count), "count")
    print(f"{workload}: {len(per_pass)} untraced and {len(per_pass)} traced passes "
          f"of {len(ops)} ops")
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    refs = workloads.load_references()
    try:
        workloads.validate_references(refs, args.workload)
    except workloads.BadReference as exc:
        raise SystemExit(f"reference failed its cross-check: {exc}")
    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    ops = workloads.build_ops(args.workload, rng, refs, OUT_DIR)
    cal = Calibration()
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}.tsv"
        attempted, failed, metrics = per_layer(cal, args.workload, cli.main, ops, rng,
                                               args.seconds, trace_path)
    else:
        attempted, failed, metrics = end_to_end(cal, args.workload, cli.main, ops, rng,
                                                args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
