import hashlib
import json
import sys

import pytest

from sandpiles import (
    GroupAction,
    board_graph,
    count_matchings,
    dihedral_action,
    grid_sandpile,
    identity_config,
    klein_action,
    symmetric_config_order,
    symmetric_identity,
)
from sandpiles import checks
from sandpiles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_symmetric_det(capsys):
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "4",
                           "--cols", "4")
    assert code == 0
    assert json.loads(out)["value"] == 36


def test_count_symmetric_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "4",
                           "--cols", "3", "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert set(report["values"].values()) == {71}


def test_count_symmetric_transposed_grid(capsys):
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "3",
                           "--cols", "4", "--method", "all")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_count_tilings(capsys):
    code, out, _ = run_cli(capsys, "count-tilings", "--rows", "4",
                           "--cols", "4", "--board", "mobius")
    assert code == 0
    assert json.loads(out)["count"] == 71


def test_count_tilings_enumerate(capsys):
    code, out, _ = run_cli(capsys, "count-tilings", "--rows", "2",
                           "--cols", "2", "--enumerate")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == report["weight_sum"] == 2
    assert len(report["matchings"]) == 2


@pytest.mark.parametrize("board,rows,cols,digest", [
    ("plain", 2, 3, "00b2728eb427ece85f974e44a48a46a0b25dac2bc384b23bd9c1f0b810f4fc55"),
    ("mobius", 4, 4, "e34610a4d789a35fa911f6b4891e1a9af28a1522567f843b54a32a5ca79af925"),
    ("mobius-weighted", 5, 4,
     "486e7872a91e5f6d6b8824b8bbdaf982aa1cd5b9952a82e1a25a1a0be47c8a1c"),
    ("two-weighted", 4, 4,
     "8e488061981e393f85df2b66da581c8e19a2f37059944486e946c44759afca15"),
])
def test_count_tilings_enumerate_bytes_are_pinned(capsys, board, rows, cols, digest):
    # board_graph's edge order fixes the order of the listed matchings
    code, out, _ = run_cli(capsys, "count-tilings", "--board", board, "--rows",
                           str(rows), "--cols", str(cols), "--enumerate")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_count_tilings_enumerate_is_refused_before_counting(capsys, monkeypatch):
    def unused(board):
        raise AssertionError("the board was counted")

    monkeypatch.setattr("sandpiles.cli.count_matchings", unused)
    code, out, err = run_cli(capsys, "count-tilings", "--rows", "40",
                             "--cols", "40", "--enumerate")
    assert (code, out) == (3, "")
    assert "cap" in err


def test_count_symmetric_all_computes_the_closed_form_once(capsys, monkeypatch):
    calls = []
    closed_form_count = checks.closed_form_count
    monkeypatch.setattr(checks, "closed_form_count",
                        lambda *args: calls.append(args) or closed_form_count(*args))
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "6",
                           "--cols", "5", "--method", "all")
    assert code == 0
    values = json.loads(out)["values"]
    assert values["product"] == values["chebyshev"] == values["det"]
    assert len(calls) == 1


def test_order_all_ones_reports_ratio(capsys):
    code, out, _ = run_cli(capsys, "order", "--rows", "2", "--cols", "2",
                           "--config", "all-ones")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 2
    assert report["all_twos_order"] == 1
    assert report["ratio"] == 2


def test_order_all_twos(capsys):
    code, out, _ = run_cli(capsys, "order", "--rows", "3", "--cols", "4")
    assert code == 0
    assert json.loads(out)["order"] == 71


def test_order_all_twos_20x20(capsys):
    code, out, _ = run_cli(capsys, "order", "--rows", "20", "--cols", "20")
    assert code == 0
    assert json.loads(out)["order"] == 858944872773025112243


def test_order_all_ones_12x12(capsys):
    code, out, _ = run_cli(capsys, "order", "--rows", "12", "--cols", "12",
                           "--config", "all-ones")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 11517430
    assert report["all_twos_order"] == 5758715
    assert report["ratio"] == 2


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 2), (4, 4), (5, 5),
                                       (6, 3), (7, 7), (8, 8)])
def test_order_all_ones_twos_order_matches_the_all_twos_solve(capsys, rows, cols):
    # all_twos_order is read off the all-ones order, not solved again
    size = ("--rows", str(rows), "--cols", str(cols))
    ones = json.loads(run_cli(capsys, "order", *size, "--config", "all-ones")[1])
    twos = json.loads(run_cli(capsys, "order", *size)[1])
    assert ones["all_twos_order"] == twos["order"]
    assert ones["ratio"] * twos["order"] == ones["order"]


def test_identity_pgm_stable_bytes(capsys, tmp_path):
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert run_cli(capsys, "identity", "--rows", "4", "--cols", "4",
                   "--out", str(out1))[0] == 0
    assert run_cli(capsys, "identity", "--rows", "4", "--cols", "4",
                   "--out", str(out2))[0] == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"P2\n4 4\n3\n")


def test_identity_unwritable_out_is_a_usage_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.pgm"
    code, stdout, err = run_cli(capsys, "identity", "--rows", "2", "--cols",
                                "2", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1 and str(out) in err
    assert not out.exists()


@pytest.mark.parametrize("rows,cols,fmt,digest", [
    (33, 32, "pgm", "eb28fa2626e9f2469ccdc8f63d01e9a17376cd9e1b972d69e255567c984d4eb9"),
    (33, 32, "json", "e06e508a64252b23ab3f4cd1ca4f768d3c601fa5b32aca52a40977520503182a"),
    (5, 5, "pgm", "3a8375c5c101d90440c32144940b2e2918326a641b22c5ccd3b12474484978ee"),
    (5, 5, "json", "1f0c1a301f61ba828463d93b9c1fdfec83d147131dd725f77286a8885c221a68"),
    (4, 4, "pgm", "09c26f208917910344964a28f654328352ae74452dea53c79f7506e3b1c5eb51"),
    (4, 4, "json", "229e80557d233759d6843beddd38a5141c91f061b1cc6bbd99a21056943da009"),
    (48, 48, "pgm", "60d2eaf392371e2e0691c09122ecb0463fcc989aac91428af686c723c69e5f58"),
    (64, 63, "pgm", "91023292e3e4883d3c0907e5e421f089f3c9647a37c0f3a005b8319fb0cdd1a6"),
    (96, 96, "pgm", "562343e8671b03a8faffffbc4543aac9e52414975c728eefb83c05eeca50314b"),
])
def test_identity_bytes_are_pinned(capsys, tmp_path, rows, cols, fmt, digest):
    # the digests are of the images the unfolded identity_config renders,
    # and those of 48 x 48 and larger of the zero-start toppling on the fold
    out = tmp_path / f"e.{fmt}"
    code, stdout, _ = run_cli(capsys, "identity", "--rows", str(rows), "--cols",
                              str(cols), "--out", str(out), "--format", fmt)
    assert code == 0
    assert json.loads(stdout) == {"rows": rows, "cols": cols, "out": str(out),
                                  "format": fmt}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if fmt == "json":
        flat = [x for row in json.loads(out.read_text()) for x in row]
        assert tuple(flat) == identity_config(grid_sandpile(rows, cols))


@pytest.mark.parametrize("rows,cols", [(5, 5), (8, 4), (4, 6), (6, 6), (6, 5)])
def test_count_symmetric_enumerate_matches_det(capsys, rows, cols):
    values = []
    for method in ("enumerate", "det"):
        code, out, _ = run_cli(capsys, "count-symmetric", "--rows", str(rows),
                               "--cols", str(cols), "--method", method)
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values[0] == values[1]


def test_count_tilings_tall_strip(capsys):
    code, out, _ = run_cli(capsys, "count-tilings", "--rows", "40",
                           "--cols", "2")
    assert code == 0
    assert json.loads(out)["count"] == 165580141  # Fibonacci(41)


def test_identity_json(capsys, tmp_path):
    out = tmp_path / "e.json"
    run_cli(capsys, "identity", "--rows", "2", "--cols", "3",
            "--out", str(out), "--format", "json")
    grid = json.loads(out.read_text())
    assert len(grid) == 2 and len(grid[0]) == 3


def test_verify_all_agree(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-m", "2", "--max-n", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["agree"] for r in rows)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"even_even", "even_odd", "odd_odd", "staircase"}


def test_verify_staircase_rows_reach_max_n(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-m", "1", "--max-n", "7")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    staircase = [r for r in rows if r["kind"] == "staircase"]
    assert [r["n"] for r in staircase] == list(range(1, 8))
    assert all(r["values"]["power_of_two_check"] is True for r in staircase)


def test_verify_prints_an_exact_ratio_when_the_power_check_fails(
        capsys, monkeypatch):
    from sandpiles.tilings import a_seq_upto

    monkeypatch.setattr("sandpiles.checks.a_seq_upto",
                        lambda n: [ak + 2 for ak in a_seq_upto(n)])
    code, out, _ = run_cli(capsys, "verify", "--max-m", "1", "--max-n", "1")
    assert code == 1
    rows = [json.loads(line, parse_float=pytest.fail)
            for line in out.splitlines()]
    staircase = rows[-1]["values"]
    assert staircase["power_of_two_check"] is False
    assert staircase["tilings_over_a_sq"] == "2/9"  # 2 tilings of 2x2, a_1 = 3


def test_verify_beyond_a_cap_prints_no_rows(capsys, monkeypatch):
    # work 1,020 for each 2x2 planar board, 4,080 for the Mobius 2x2: the
    # odd_odd row's board and the Mobius-weighted board are counted, the
    # Mobius board of the even_odd row is refused, and no row, the
    # odd_odd row included, may have been printed
    monkeypatch.setattr("sandpiles.tilings.SEAM_WORK_CAP", 2_000)
    code, out, err = run_cli(capsys, "verify", "--max-m", "1", "--max-n", "1")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_verify_refuses_on_the_largest_mobius_board_first(capsys, monkeypatch):
    # seam work: 16,768 for the Mobius 4x2 board, 69,376 for 6x2
    monkeypatch.setattr("sandpiles.tilings.SEAM_WORK_CAP", 20_000)
    counted = []

    def recording(board):
        counted.append(board)
        return count_matchings(board)

    monkeypatch.setattr("sandpiles.checks.count_matchings", recording)
    code, out, err = run_cli(capsys, "verify", "--max-m", "3", "--max-n", "1")
    assert (code, out) == (3, "")
    assert "cap" in err
    # only the 6x2 boards of the last two grid rows (5x1, then 6x1) were
    # counted, the Mobius board last: no smaller Mobius board, no
    # staircase board
    assert {max(board.vertices) for board in counted} == {(6, 2)}
    assert counted[-1].edges == board_graph("mobius", 6, 2).edges


def test_verify_computes_each_closed_form_and_a_n_once(capsys, monkeypatch):
    from sandpiles import checks

    calls = {"closed_form_count": [], "a_seq_upto": []}
    for name in calls:
        def counting(*args, name=name, fn=getattr(checks, name)):
            calls[name].append(args)
            return fn(*args)

        monkeypatch.setattr(checks, name, counting)
    code, _, _ = run_cli(capsys, "verify", "--max-m", "2", "--max-n", "2")
    assert code == 0
    # one resultant per grid row (2 x 2 x 3 rows) and one elimination
    # for every staircase a_n
    assert len(calls["closed_form_count"]) == 12
    assert calls["a_seq_upto"] == [(2,)]


def test_verify_counts_the_staircase_boards_before_uncapped_work(
        capsys, monkeypatch):
    # the 2 x 2n grid-row boards pass (work at most 6,240 for the Mobius
    # 2 x 20), the plain 20 x 20 staircase board (work 201,000) does not
    monkeypatch.setattr("sandpiles.tilings.SEAM_WORK_CAP", 10**4)
    counted = []

    def recording(board):
        counted.append(board)
        return count_matchings(board)

    def unused(n):
        raise AssertionError("a_seq_upto ran before a refusal")

    monkeypatch.setattr("sandpiles.checks.count_matchings", recording)
    monkeypatch.setattr("sandpiles.checks.a_seq_upto", unused)
    code, out, err = run_cli(capsys, "verify", "--max-m", "1", "--max-n", "10")
    assert (code, out) == (3, "")
    assert "cap" in err
    assert len(counted) == 41
    assert {max(board.vertices)[0] for board in counted[:40]} == {2}
    assert max(counted[40].vertices) == (20, 20)


def test_a_seq(capsys):
    code, out, _ = run_cli(capsys, "a-seq", "--n", "5")
    assert code == 0
    report = json.loads(out)
    assert report["values"] == [1, 3, 29, 901, 89893]
    assert report["all_odd"] is True


def test_usage_errors(capsys):
    assert run_cli(capsys, "count-symmetric", "--rows", "0", "--cols", "2")[0] == 2
    assert run_cli(capsys, "count-tilings", "--rows", "2", "--cols", "2",
                   "--board", "two-weighted")[0] == 0
    assert run_cli(capsys, "count-tilings", "--rows", "3", "--cols", "3",
                   "--board", "two-weighted")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["count-symmetric", "--rows", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,extra", [
    ("count-symmetric", []), ("count-tilings", []), ("order", []),
    ("identity", ["--out", "unused.pgm"])])
def test_grid_commands_require_cols(capsys, command, extra):
    with pytest.raises(SystemExit) as exc:
        main([command, "--rows", "4", *extra])
    assert exc.value.code == 2
    assert "--cols" in capsys.readouterr().err


def test_all_methods_agree_only_when_two_count(capsys, monkeypatch):
    # with every cap but det's lowered, 6 x 6 has one count: no agreement
    monkeypatch.setenv("SANDPILE_ENUM_CAP", "5")
    monkeypatch.setattr("sandpiles.formulas.SYLVESTER_DIM_CAP", 2)
    monkeypatch.setattr("sandpiles.tilings.SEAM_WORK_CAP", 10)
    code, out, err = run_cli(capsys, "count-symmetric", "--rows", "6",
                             "--cols", "6", "--method", "all")
    report = json.loads(out)
    assert (code, report["agree"]) == (1, False)
    assert [k for k, v in report["values"].items() if isinstance(v, int)] == ["det"]
    for name in ("enumerate", "product", "chebyshev", "tilings"):
        assert f"method {name} failed" in err
    # with the caps restored, every method counts 5 x 5, and all agree
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "5",
                           "--cols", "5", "--method", "all")
    assert (code, json.loads(out)["agree"]) == (0, True)


def test_row_agrees_needs_two_equal_counts():
    assert not checks.row_agrees({"kind": "even_even", "values": {"det": 36}})
    # an error string is not a count
    assert checks.row_agrees({"kind": "even_even", "values": {
        "det": 36, "tilings": "error: work exceeds the cap", "product": 36}})


def test_size_cap_exit_code(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("a burning test ran")

    monkeypatch.setenv("SANDPILE_ENUM_CAP", "5")
    monkeypatch.setattr("sandpiles.engine._burns", unused)
    code, _, err = run_cli(capsys, "count-symmetric", "--rows", "6",
                           "--cols", "6", "--method", "enumerate")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (8, 8), (9, 9), (10, 7), (7, 12)])
def test_order_and_identity_are_the_generic_folds(capsys, tmp_path, rows, cols):
    g = grid_sandpile(rows, cols)
    action = dihedral_action(rows) if rows == cols else klein_action(rows, cols)
    for config, fill in (("all-ones", 1), ("all-twos", 2)):
        code, out, _ = run_cli(capsys, "order", "--rows", str(rows), "--cols", str(cols),
                               "--config", config)
        assert code == 0
        assert json.loads(out)["order"] == symmetric_config_order(
            g, action, (fill,) * g.vertex_count)
    path = tmp_path / "id.json"
    code, _, _ = run_cli(capsys, "identity", "--rows", str(rows), "--cols", str(cols),
                         "--out", str(path), "--format", "json")
    assert code == 0
    e = symmetric_identity(g, action)
    assert json.loads(path.read_text()) == [list(e[r * cols:(r + 1) * cols])
                                            for r in range(rows)]


def test_grid_commands_build_no_unfolded_grid_or_group(capsys, tmp_path, monkeypatch):
    def unused(*args):
        raise AssertionError("an unfolded grid or a group action was built")

    monkeypatch.setattr(GroupAction, "__init__", unused)
    monkeypatch.setattr("sandpiles.checks.grid_sandpile", unused)
    monkeypatch.setattr("sandpiles.graphs.grid_sandpile", unused)
    for argv in (["order", "--rows", "9", "--cols", "9"],
                 ["order", "--rows", "8", "--cols", "5", "--config", "all-ones"],
                 ["identity", "--rows", "7", "--cols", "7", "--out", str(tmp_path / "a")],
                 ["identity", "--rows", "6", "--cols", "9", "--out", str(tmp_path / "b")],
                 ["count-symmetric", "--rows", "4", "--cols", "6", "--method", "all"],
                 ["verify", "--max-m", "2", "--max-n", "2"]):
        assert run_cli(capsys, *argv)[0] == 0


def test_enumerate_beyond_the_cap_on_a_large_grid_exits_3(capsys):
    code, out, err = run_cli(capsys, "count-symmetric", "--rows", "170",
                             "--cols", "170", "--method", "enumerate")
    assert (code, out) == (3, "")
    assert err == "size cap exceeded: the stable box on 7225 coordinates exceeds cap 10000000\n"


def test_enumerate_checks_the_box_before_building_the_fold(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("the fold was built")

    monkeypatch.setattr("sandpiles.checks.grid_fold", unused)
    code, out, err = run_cli(capsys, "count-symmetric", "--rows", "1000",
                             "--cols", "1000", "--method", "enumerate")
    assert (code, out) == (3, "")
    assert err == ("size cap exceeded: the stable box on 250000 coordinates "
                   "exceeds cap 10000000\n")


def test_order_builds_no_d4_fold_and_no_dense_fold(capsys, monkeypatch):
    fold = checks.grid_fold

    def klein_only(rows, cols, group):
        assert group == "klein", "a D4 fold was built"
        return fold(rows, cols, group)

    def unused(*args):
        raise AssertionError("the dense fold was built")

    monkeypatch.setattr("sandpiles.checks.grid_fold", klein_only)
    monkeypatch.setattr("sandpiles.checks.system_matrix", unused)
    monkeypatch.setattr("sandpiles.symmetry.system_matrix", unused)
    for rows, cols in ((9, 9), (12, 12), (8, 5), (1, 7)):
        for config in ("all-ones", "all-twos"):
            code, out, _ = run_cli(capsys, "order", "--rows", str(rows),
                                   "--cols", str(cols), "--config", config)
            assert code == 0


def test_counts_past_the_digit_limit_are_printed(capsys, monkeypatch):
    monkeypatch.setattr("sandpiles.checks.det_count", lambda rows, cols: 10**4400)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "count-symmetric", "--rows", "4", "--cols", "4",
                             "--method", "det")
    assert (code, err) == (0, "")
    assert out == ('{"rows": 4, "cols": 4, "method": "det", "value": 1'
                   + "0" * 4400 + "}\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_product_16x16_is_exact(capsys, monkeypatch):
    def unused(g, action):
        raise AssertionError("the symmetrized Laplacian was built")

    monkeypatch.setattr("sandpiles.checks.symmetrized_laplacian", unused)
    code, out, err = run_cli(capsys, "count-symmetric", "--rows", "16",
                             "--cols", "16", "--method", "product")
    assert code == 0
    assert err == ""
    assert json.loads(out)["value"] == 2444888770250892795802079170816


def test_product_beyond_sylvester_cap_exits_3(capsys, monkeypatch):
    def unused(matrix):
        raise AssertionError("the Sylvester determinant was computed")

    monkeypatch.setattr("sandpiles.formulas.det_int", unused)
    code, out, err = run_cli(capsys, "count-symmetric", "--rows", "300",
                             "--cols", "300", "--method", "product")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_mobius_beyond_seam_cap_exits_3(capsys, monkeypatch):
    def unused(d, block, rows, cols):
        raise AssertionError("a seam pass was run")

    monkeypatch.setattr("sandpiles.tilings._grid_dp", unused)
    code, out, err = run_cli(capsys, "count-tilings", "--board", "mobius",
                             "--rows", "40", "--cols", "4")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_mobius_beyond_seam_work_cap_exits_3(capsys, monkeypatch):
    # 16 wrap edges, within the old cap of 16, but 2^16 passes over 256
    # cells of band 16 took about 98 s
    def unused(d, block, rows, cols):
        raise AssertionError("a seam pass was run")

    monkeypatch.setattr("sandpiles.tilings._grid_dp", unused)
    code, out, err = run_cli(capsys, "count-tilings", "--board", "mobius",
                             "--rows", "16", "--cols", "16")
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("rows,cols", [(18, 2), (16, 4)])
def test_mobius_thin_boards_beyond_seam_work_cap_exit_3(capsys, monkeypatch, rows, cols):
    # few cells per pass, but 2^rows passes of fixed cost: 18x2 took
    # about 9 s and 16x4 about 6 s when only cells x side^2 was charged
    def unused(d, block, rows, cols):
        raise AssertionError("a seam pass was run")

    monkeypatch.setattr("sandpiles.tilings._grid_dp", unused)
    code, out, err = run_cli(capsys, "count-tilings", "--board", "mobius",
                             "--rows", str(rows), "--cols", str(cols))
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_plain_board_beyond_the_work_cap_exits_3(capsys, monkeypatch):
    # one pass, but a dense 20,000 x 20,000 Kasteleyn matrix
    def unused(d, block, rows, cols):
        raise AssertionError("a determinant pass was run")

    monkeypatch.setattr("sandpiles.tilings._grid_dp", unused)
    code, out, err = run_cli(capsys, "count-tilings", "--rows", "200",
                             "--cols", "200")
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("rows,cols", [(8, 8), (10, 4), (12, 10), (12, 12)])
def test_mobius_boards_of_verify_and_the_benchmark_pass_the_seam_cap(
        capsys, monkeypatch, rows, cols):
    passes = []
    monkeypatch.setattr("sandpiles.tilings._grid_dp",
                        lambda d, block, rows, cols: passes.append(len(rows)) or 1)
    code, _, _ = run_cli(capsys, "count-tilings", "--board", "mobius",
                         "--rows", str(rows), "--cols", str(cols))
    assert code == 0
    assert len(passes) == 2 ** rows


def test_count_symmetric_all_methods_agree_12x12(capsys):
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "12",
                           "--cols", "12", "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["values"]["product"] == report["values"]["det"]
