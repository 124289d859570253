import json

import pytest

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
    from sandpiles.tilings import a_seq

    monkeypatch.setattr("sandpiles.checks.a_seq", lambda n: a_seq(n) + 2)
    code, out, _ = run_cli(capsys, "verify", "--max-m", "1", "--max-n", "1")
    assert code == 1
    rows = [json.loads(line, parse_float=pytest.fail)
            for line in out.splitlines()]
    staircase = rows[-1]["values"]
    assert staircase["power_of_two_check"] is False
    assert staircase["tilings_over_a_sq"] == "2/9"  # 2 tilings of 2x2, a_1 = 3


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


def test_size_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SANDPILE_ENUM_CAP", "5")
    code, _, err = run_cli(capsys, "count-symmetric", "--rows", "6",
                           "--cols", "6", "--method", "enumerate")
    assert code == 3
    assert "cap" in err


def test_product_16x16_is_exact(capsys, monkeypatch):
    def unused(rows, cols):
        raise AssertionError("the symmetrized Laplacian was built")

    monkeypatch.setattr("sandpiles.checks.sym_laplacian", unused)
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
    def unused(cells, unit):
        raise AssertionError("a seam pass was run")

    monkeypatch.setattr("sandpiles.tilings._grid_dp", unused)
    code, out, err = run_cli(capsys, "count-tilings", "--board", "mobius",
                             "--rows", "40", "--cols", "4")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_count_symmetric_all_methods_agree_12x12(capsys):
    code, out, _ = run_cli(capsys, "count-symmetric", "--rows", "12",
                           "--cols", "12", "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["values"]["product"] == report["values"]["det"]
