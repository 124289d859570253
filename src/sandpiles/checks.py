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
from .engine import _recurrents, config_order
from .formulas import block_tridiag_det, closed_form_count
from .graphs import board_graph, grid_sandpile, p_graph, reduced_laplacian
from .symmetry import (
    grid_config_order,
    grid_fold,
    klein_action,
    sink_weights,
    symmetrized_laplacian,
    system_matrix,
)
from .tilings import a_seq_upto, count_matchings, diagonal_config, distance_config


def sym_laplacian(rows, cols):
    """The rows x cols grid's Laplacian folded by its Klein symmetries."""
    return symmetrized_laplacian(grid_sandpile(rows, cols), klein_action(rows, cols))


def _fold_blocks(system, width):
    """(A, B, C, m) of a folded system (thresholds, out) whose orbits are
    numbered row by row, `width` to a row: its matrix S (row Gw, column
    Gv: out_degree[v] on the diagonal, less out[v][w]) must be block
    tridiagonal with diagonal blocks (A, ..., A, B), couplings -I and
    -C at block (m, m-1), the shape `block_tridiag_det` takes.  Any
    other shape raises ValueError."""
    thresholds, out = system
    m, rest = divmod(len(thresholds), width)
    if rest:
        raise ValueError("the orbits do not fill whole block rows")
    # row w of S on the block columns I - 1, I and I + 1, I = w // width
    band = [[0] * (3 * width) for _ in thresholds]
    for v, gains in enumerate(out):
        band[v][width + v % width] += thresholds[v]
        for w, wt in gains.items():
            col = v - (w // width - 1) * width
            if not 0 <= col < 3 * width:
                raise ValueError("the fold is not block tridiagonal")
            band[w][col] -= wt

    def block(i, j):  # block (i, i + j - 1) of S
        return [row[j * width:(j + 1) * width]
                for row in band[i * width:(i + 1) * width]]

    minus_one = [[-(i == j) for j in range(width)] for i in range(width)]
    a = block(0, 1)
    if (any(block(i, 1) != a for i in range(1, m - 1))
            or any(block(i, 2) != minus_one for i in range(m - 1))
            or any(block(i, 0) != minus_one for i in range(1, m - 1))):
        raise ValueError("the fold's blocks are not (A, ..., A, B) with couplings -I")
    return a, block(m - 1, 1), [[-x for x in row] for row in block(m - 1, 0)], m


def det_count(rows, cols):
    """The determinant of the Klein fold S, by the block recurrence on
    S's own blocks.  The orbits (i, j), numbered row by row, make S block
    tridiagonal, one block per orbit row; the blocks are laid along the
    shorter side (the transpose is folded when cols > rows, which keeps
    the determinant), so the recurrence ends in one ceil(min/2)-square
    determinant.  The "block" count runs the same recurrence on the
    `parity_blocks` formulas instead of the graph's fold; Bareiss on the
    whole fold (`sym_laplacian`) stays the tests' oracle."""
    if cols > rows:
        rows, cols = cols, rows
    system, _ = grid_fold(rows, cols, "klein")
    return block_tridiag_det(*_fold_blocks(system, (cols + 1) // 2))


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
        # the up-set search of `enumerate_symmetric_recurrents`, counted
        # on the Klein fold without unfolding its results
        (thresholds, out), _ = grid_fold(rows, cols, "klein")
        return len(_recurrents(thresholds, out, sink_weights(thresholds, out)))

    methods = {
        "det": lambda: det_count(rows, cols),
        "enumerate": enumerate_count,
        "product": lambda: closed_form_count(parity, m, n, "product"),
        "chebyshev": lambda: closed_form_count(parity, m, n, "chebyshev"),
        "tilings": lambda: count_matchings(tiling_board(parity, m, n)),
    }
    return parity, m, n, methods


def _grid_row(rows, cols):
    parity, m, n, _ = grid_parity(rows, cols)
    closed = closed_form_count(parity, m, n)  # the product and Chebyshev forms
    values = {"det": det_count(rows, cols),
              "block": block_tridiag_det(*parity_blocks(parity, n), m),
              "product": closed, "chebyshev": closed,
              "tilings": count_matchings(tiling_board(parity, m, n))}
    if parity == "even_odd":
        values["mobius"] = count_matchings(board_graph("mobius", 2 * m, 2 * n))
        values["lu_wu"] = closed  # Lu-Wu's product is the even_odd closed form
    return {"kind": parity, "m": m, "n": n, "rows": rows, "cols": cols,
            "values": values}


def _phi_check(n):
    """The staircase is the D4 fold of the 2n x 2n grid: the symmetrized
    Laplacian, rows and columns reversed, is L(P_n) with the rows of the
    diagonal vertices (i, i) doubled."""
    sym = system_matrix(*grid_fold(2 * n, 2 * n, "d4")[0])
    pg = p_graph(n)
    return [row[::-1] for row in sym[::-1]] == [
        [x * (1 + (i == j)) for x in row]
        for row, (i, j) in zip(reduced_laplacian(pg), pg.labels)]


def _staircase_row(n, an, tilings):
    values = {"a_n": an, "odd": an % 2 == 1, "tilings_2n": tilings}
    g = gcd(tilings, an**2)
    values["tilings_over_a_sq"] = (
        tilings // g if g == an**2 else f"{tilings // g}/{an**2 // g}")
    values["power_of_two_check"] = tilings == 2**n * an**2
    order_sq = grid_config_order(2 * n, 2 * n, 2)
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

    The grid rows are computed last to first, then the staircase 2n x 2n
    boards from n = max_n down, then the rest of the staircase work,
    with every a_n from one elimination (`a_seq_upto`).  The capped work
    (tilings, the Sylvester dimension) grows with m and n, so a cap
    trips on the largest grid or board, before any uncapped work."""
    shapes = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            shapes += [(2 * m, 2 * n),  # even_even
                       (2 * m, 2 * n - 1),  # even_odd
                       (2 * m - 1, 2 * n - 1)]  # odd_odd
    rows = [_grid_row(*shape) for shape in reversed(shapes)][::-1]
    tilings = [count_matchings(board_graph("plain", 2 * n, 2 * n))
               for n in range(max_n, 0, -1)][::-1]
    return rows + [_staircase_row(n, an, t) for n, an, t in
                   zip(range(1, max_n + 1), a_seq_upto(max_n), tilings)]


def row_agrees(row):
    """A grid row agrees when all its counts are equal, a staircase row
    when all its boolean checks hold."""
    if row["kind"] == "staircase":
        return all(v for v in row["values"].values() if isinstance(v, bool))
    return len(set(row["values"].values())) == 1
