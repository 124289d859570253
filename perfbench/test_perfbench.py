"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, seam_subsets, traced  # noqa: E402

run.import_cli()

from sandpiles import linalg, tilings  # noqa: E402
from sandpiles.graphs import board_graph  # noqa: E402

CAL = run.Calibration()


def _op(name, main_result):
    """An op whose check wants the value 7, and a `main` that behaves as
    given: an exception to raise, an exit code, or a value to print."""

    def check(stdout):
        got = json.loads(stdout)["value"]
        return None if got == 7 else f"got {got}"

    return workloads.Op(name, [name], check), main_result


def _fake_main(behaviour):
    def main(argv):
        result = behaviour[argv[0]]
        if isinstance(result, BaseException):
            raise result
        if isinstance(result, str):
            print(json.dumps({"value": int(result)}))
            return 0
        return result

    return main


def test_each_failure_kind_counts_once():
    cases = {"raises": ZeroDivisionError("boom"), "usage": SystemExit(2),
             "exits": 1, "wrong": "8", "right": "7"}
    ops = [_op(name, result)[0] for name, result in cases.items()]
    record, _ = run.run_pass(CAL, _fake_main(cases), ops, random.Random(0))
    failures = dict(f.split(": ", 1) for f in record["failures"])
    assert sorted(failures) == ["exits", "raises", "usage", "wrong"]
    assert failures["raises"].startswith("raised ZeroDivisionError")
    assert failures["usage"] == "exit 2"
    assert failures["exits"] == "exit 1"
    assert failures["wrong"] == "wrong got 8"
    assert set(record["times"]) == set(cases)


def test_unreadable_output_is_a_wrong_value():
    op = workloads.Op("junk", ["junk"], lambda stdout: json.loads(stdout) and None)
    _, failure, nbytes = run.run_op(lambda argv: print("not json") or 0, op)
    assert failure.startswith("wrong unreadable output")
    assert nbytes == len("not json\n")


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 4.5, 5.0, 6.0])
    t = Tracer(clock=lambda: next(ticks))
    t.begin("tilings.a_seq")   # 0.0
    t.begin("linalg.det_int")  # 1.0
    t.end()                    # 4.0: det_int lasted 3
    t.begin("linalg.det_int")  # 4.5
    t.end()                    # 5.0: det_int lasted 0.5
    t.end()                    # 6.0: a_seq lasted 6, of which 3.5 in children
    assert t.self_s["linalg.det_int"] == 3.5
    assert t.self_s["tilings.a_seq"] == 2.5
    assert t.calls["linalg.det_int"] == 2
    assert list(t.span_parent) == [-1, 0, 0]


def test_traced_run_nests_spans_and_restores_functions():
    original_a_seq, original_det = tilings.a_seq, tilings.det_int
    t = Tracer()
    with traced(t):
        assert tilings.a_seq is not original_a_seq
        assert tilings.det_int is not original_det
        value = tilings.a_seq(4)
    assert tilings.a_seq is original_a_seq
    assert tilings.det_int is original_det is linalg.det_int
    assert value == original_a_seq(4)
    names = [t.names[i] for i in t.span_name]
    root = names.index("tilings.a_seq")
    det = names.index("linalg.det_int")
    assert t.span_parent[det] == root
    duration = t.span_end[root] - t.span_start[root]
    assert sum(t.self_s.values()) + t.excluded_s == pytest.approx(duration)
    assert t.maxima["linalg.det_int.dim_max"] == 10


def test_seam_subsets_counts_dp_passes_on_a_mobius_board(monkeypatch):
    board = board_graph("mobius", 4, 4)
    assert seam_subsets(board) == 2**4
    assert seam_subsets(board_graph("plain", 4, 4)) == 1
    passes = []
    grid_dp = tilings._grid_dp
    monkeypatch.setattr(tilings, "_grid_dp",
                        lambda *args: passes.append(1) or grid_dp(*args))
    tilings.count_matchings(board)
    assert len(passes) == seam_subsets(board)


def test_references_pass_their_cross_checks():
    refs = workloads.load_references()
    for name in workloads.WORKLOADS:
        workloads.validate_references(refs, name)


def test_a_corrupted_reference_stops_the_benchmark():
    refs = workloads.load_references()
    refs["symmetric_counts"]["24x24"] += 1
    with pytest.raises(workloads.BadReference):
        workloads.validate_references(refs, "count")


def test_every_seed_sends_names_the_references_cover():
    refs = workloads.load_references()
    for seed in range(8):
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name, random.Random(seed), refs, ".")
            assert workloads.TOP_RUNG[name] in {op.name for op in ops}



def test_closed_form_probe_counts_wrong_values_not_refusals():
    from sandpiles.errors import PrecisionError

    def fake(parity, m, n, form):
        if form == "chebyshev":
            raise PrecisionError("refused")
        return exact.symmetric_count(parity, m, n) + (m == 8)

    assert workloads.closed_form_wrong(fake) == 1  # product 16x16 only


def test_pass_times_are_divided_by_the_pass_slowdown(monkeypatch):
    cal = run.Calibration()
    monkeypatch.setattr(run.Calibration, "sample",
                        lambda self: self.times.append(3 * run.CAL_REF_S))
    op = workloads.Op("op", ["op"], lambda stdout: None)
    record, _ = run.run_pass(cal, lambda argv: 0, [op], random.Random(0))
    assert record["wall"] == pytest.approx(record["raw_wall"] / 3)
    assert record["times"]["op"] == pytest.approx(record["raw_wall"] / 3)
