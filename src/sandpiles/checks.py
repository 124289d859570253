"""The cross-check chain: every counting method for one grid, and the
rows of the verification matrix, as plain data.

The symmetric recurrents of a grid are counted by the folded Laplacian
determinant, by enumeration, by the two closed-form products and by
weighted domino tilings; `verify_rows` adds the block recurrence (and,
for even x odd grids, the twisted board and the Lu-Wu product) and the
staircase checks.  Every value is an exact integer or a boolean.
"""

from math import gcd

from .blocks import grid_parity, parity_blocks
from .engine import config_order
from .formulas import block_tridiag_det, closed_form_count, lu_wu_count
from .graphs import board_graph, grid_sandpile, p_graph, reduced_laplacian
from .linalg import det_int
from .symmetry import (
    dihedral_action,
    enumerate_symmetric_recurrents,
    grid_action,
    klein_action,
    symmetric_config_order,
    symmetrized_laplacian,
)
from .tilings import a_seq, count_matchings, diagonal_config, distance_config


def sym_laplacian(rows, cols):
    """The rows x cols grid's Laplacian folded by its Klein symmetries."""
    return symmetrized_laplacian(grid_sandpile(rows, cols), klein_action(rows, cols))


def det_count(rows, cols):
    """The determinant of the Klein fold S.  On an n x n grid the
    transpose splits S into two blocks, and the even one is the D4 fold
    S_D4.  A configuration odd under the transpose is odd under the
    anti-transpose too (sigma.tau.transpose), so it is zero on both
    diagonals, and no edge crosses a diagonal but through a diagonal
    cell: the odd block is S_D4 on the orbits off the diagonals, those
    whose least cell (i, j) has i != j (an orbit that meets the
    anti-diagonal meets the diagonal).  Each block has about half the
    rows and bits of S."""
    action = grid_action(rows, cols)
    sym = symmetrized_laplacian(grid_sandpile(rows, cols), action)
    if rows != cols:
        return det_int(sym)
    off = [o for o, r in enumerate(action.representatives) if r // rows != r % rows]
    return det_int(sym) * det_int([[sym[a][b] for b in off] for a in off])


def tiling_board(parity, m, n):
    """The board whose tilings count the symmetric recurrents."""
    if parity == "even_even":
        return board_graph("plain", 2 * m, 2 * n)
    if parity == "even_odd":
        return board_graph("mobius_weighted", 2 * m, 2 * n)
    return board_graph("two_weighted", 2 * m, 2 * n)


def count_methods(rows, cols):
    """Classify the grid and return (parity, m, n, methods), where
    methods maps each method name to a thunk computing the count."""
    parity, m, n, _ = grid_parity(rows, cols)

    def enumerate_count():
        g = grid_sandpile(rows, cols)
        return len(enumerate_symmetric_recurrents(g, klein_action(rows, cols)))

    methods = {
        "det": lambda: det_count(rows, cols),
        "enumerate": enumerate_count,
        "product": lambda: closed_form_count(parity, m, n, "product"),
        "chebyshev": lambda: closed_form_count(parity, m, n, "chebyshev"),
        "tilings": lambda: count_matchings(tiling_board(parity, m, n)),
    }
    return parity, m, n, methods


def _grid_row(rows, cols):
    parity, m, n, methods = count_methods(rows, cols)
    del methods["enumerate"]  # exponential; the other methods check each other
    values = {"det": methods.pop("det")(),
              "block": block_tridiag_det(*parity_blocks(parity, n), m)}
    values.update((name, fn()) for name, fn in methods.items())
    if parity == "even_odd":
        values["mobius"] = count_matchings(board_graph("mobius", 2 * m, 2 * n))
        values["lu_wu"] = lu_wu_count(m, n)
    return {"kind": parity, "m": m, "n": n, "rows": rows, "cols": cols,
            "values": values}


def _phi_check(n):
    """The staircase is the D4 fold of the 2n x 2n grid: the symmetrized
    Laplacian, rows and columns reversed, is L(P_n) with the rows of the
    diagonal vertices (i, i) doubled."""
    sym = symmetrized_laplacian(grid_sandpile(2 * n, 2 * n), dihedral_action(2 * n))
    pg = p_graph(n)
    return [row[::-1] for row in sym[::-1]] == [
        [x * (1 + (i == j)) for x in row]
        for row, (i, j) in zip(reduced_laplacian(pg), pg.labels)]


def _staircase_row(n):
    an = a_seq(n)
    values = {"a_n": an, "odd": an % 2 == 1}
    tilings = count_matchings(board_graph("plain", 2 * n, 2 * n))
    values["tilings_2n"] = tilings
    g = gcd(tilings, an**2)
    values["tilings_over_a_sq"] = (
        tilings // g if g == an**2 else f"{tilings // g}/{an**2 // g}")
    values["power_of_two_check"] = tilings == 2**n * an**2
    order_sq = symmetric_config_order(
        grid_sandpile(2 * n, 2 * n), grid_action(2 * n, 2 * n),
        (2,) * (4 * n * n))
    values["order_two_grid"] = order_sq
    values["divides_a_n"] = an % order_sq == 0
    pg = p_graph(n)
    values["order_two_staircase"] = config_order(pg, (2,) * pg.vertex_count)
    values["order_transfer"] = values["order_two_staircase"] == order_sq
    dist = distance_config(n)
    values["distance_maps_to_diagonal"] = diagonal_config(n) == tuple(
        sum(x * d for x, d in zip(row, dist)) for row in reduced_laplacian(pg))
    values["embedding_compatible"] = _phi_check(n)
    return {"kind": "staircase", "m": n, "n": n, "values": values}


def verify_rows(max_m, max_n):
    """The verification matrix as a list of rows: one row per parity
    class for each m <= max_m, n <= max_n, then one staircase row for
    each n <= max_n.

    The grid rows are computed last to first, then the staircase rows.
    The grid rows' capped work (the tiling work and the closed forms'
    Sylvester dimension) grows with m and n, so a size cap on it trips
    on the largest grid, before any other work.  A staircase row's plain
    2n x 2n board passes the tiling cap up to n = 52."""
    shapes = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            shapes += [(2 * m, 2 * n),  # even_even
                       (2 * m, 2 * n - 1),  # even_odd
                       (2 * m - 1, 2 * n - 1)]  # odd_odd
    rows = [_grid_row(*shape) for shape in reversed(shapes)][::-1]
    return rows + [_staircase_row(n) for n in range(1, max_n + 1)]


def row_agrees(row):
    """A grid row agrees when all its counts are equal, a staircase row
    when all its boolean checks hold."""
    if row["kind"] == "staircase":
        return all(v for v in row["values"].values() if isinstance(v, bool))
    return len(set(row["values"].values())) == 1
