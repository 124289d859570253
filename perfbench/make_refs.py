"""Record the exact reference values of every benchmark op.

Run from the repository root:

    python3 perfbench/make_refs.py

Every value is taken from an exact path of the package and accepted only
where a second exact path agrees: the folded `det_int`, the block
recurrence `block_tridiag_det` and, where the board is small enough,
`count_matchings`.  Closed forms are never used as references.  The file
is then checked once more by `workloads.validate_references`, which uses
the benchmark's own exact code.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sandpiles import cli  # noqa: E402
from sandpiles.blocks import grid_parity, parity_blocks  # noqa: E402
from sandpiles.engine import identity_config, stable_add  # noqa: E402
from sandpiles.formulas import block_tridiag_det  # noqa: E402
from sandpiles.graphs import board_graph, grid_sandpile  # noqa: E402
from sandpiles.linalg import det_int, mat_identity  # noqa: E402
from sandpiles.tilings import a_seq, count_matchings  # noqa: E402

import exact  # noqa: E402
import workloads  # noqa: E402

# count_matchings is exponential in the board's row count; beyond this
# many cells the two determinant paths are the cross-check.
TILING_CELLS_MAX = 144


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def symmetric_count(rows, cols):
    parity, m, n, _ = grid_parity(rows, cols)
    det = det_int(cli._sym_laplacian(rows, cols))
    block = block_tridiag_det(*parity_blocks(parity, n), m)
    assert det == block, (rows, cols, det, block)
    if rows * cols <= TILING_CELLS_MAX:
        assert count_matchings(cli._tiling_board(parity, m, n)) == det
    return det


def grid_group_order(rows, cols):
    a = [[4 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(cols)]
         for i in range(cols)]
    return block_tridiag_det(a, a, mat_identity(cols), rows)


def main():
    refs = {"symmetric_counts": {}, "verify_rows": {}, "orders": {},
            "identity": {}, "a_seq": {}}
    for label, a, b in workloads.WORKLOADS["verify"]:
        for row in cli._verify_rows(a, b):
            assert cli._row_agrees(row), row
            key = f"{row['kind']}/{row['m']}/{row['n']}"
            assert refs["verify_rows"].setdefault(key, row["values"]) == row["values"]
    for label, a, b in workloads.WORKLOADS["count"]:
        for rows, cols in ((a, b), (b, a)):
            refs["symmetric_counts"][f"{rows}x{cols}"] = symmetric_count(rows, cols)
    for label, a, b in workloads.WORKLOADS["order"]:
        if label in ("all-twos", "all-ones"):
            for rows, cols in ((a, b), (b, a)):
                out = _cli_json(["order", "--rows", str(rows), "--cols", str(cols),
                                 "--config", label])
                keep = {k: out[k] for k in ("order", "all_twos_order", "ratio")
                        if k in out}
                assert grid_group_order(rows, cols) % keep["order"] == 0
                refs["orders"][f"{label}/{rows}x{cols}"] = keep
        elif label == "identity":
            g = grid_sandpile(a, b)
            e = identity_config(g)
            assert stable_add(g, e, e) == e
            grid = [list(e[r * b:(r + 1) * b]) for r in range(a)]
            refs["identity"][f"{a}x{b}"] = {
                "sha256": exact.grid_digest(grid),
                "grid": ["".join(map(str, row)) for row in grid]}
        else:
            values = [a_seq(n) for n in range(1, a + 1)]
            for n, an in enumerate(values, start=1):
                if 4 * n * n <= TILING_CELLS_MAX:
                    assert count_matchings(board_graph("plain", 2 * n, 2 * n)) \
                        == 2**n * an**2
            refs["a_seq"][str(a)] = values
    for name in workloads.WORKLOADS:
        workloads.validate_references(refs, name)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
