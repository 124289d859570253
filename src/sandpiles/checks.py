"""The cross-check chain: every counting method for one grid, and the
rows of the verification matrix, as plain data.

The symmetric recurrents of a grid are counted by the folded Laplacian
determinant, by enumeration, by the two closed-form products and by
weighted domino tilings; `verify_rows` adds the block recurrence (and,
for even x odd grids, the twisted board and the Lu-Wu product) and the
staircase checks.  Every value is an exact integer or a boolean.
"""

from functools import cache
from math import gcd

from .blocks import grid_parity, parity_blocks
from .engine import _check_box, _order, _recurrents, config_order, sink_weights
from .formulas import band_reduce, block_tridiag_det, closed_form_count
from .graphs import (
    _system_rows,
    board_graph,
    grid_sandpile,
    p_graph,
    reduced_laplacian,
    system_matrix,
)
from .linalg import det_int
from .symmetry import grid_fold, klein_action, symmetrized_laplacian
from .tilings import a_seq_upto, count_matchings, diagonal_config, distance_config


def sym_laplacian(rows, cols):
    """The rows x cols grid's Laplacian folded by its Klein symmetries."""
    return symmetrized_laplacian(grid_sandpile(rows, cols), klein_action(rows, cols))


def _klein_rows(rows, cols):
    """The Klein fold S as (its rows of (column, entry) pairs, width),
    laid along the shorter side: the transpose is folded when
    cols > rows, which keeps det S and every constant configuration's
    order.  Its orbits, numbered row by row, width = ceil(cols/2) to a
    row, give S the band and -1 couplings that `band_reduce` takes."""
    if cols > rows:
        rows, cols = cols, rows
    band = _system_rows(*grid_fold(rows, cols, "klein")[0])
    return [list(row.items()) for row in band], (cols + 1) // 2


def det_count(rows, cols):
    """det S of the Klein fold, as det M of `band_reduce`, ceil(min/2)
    square.  The "block" count reduces `parity_blocks` instead; Bareiss
    on the whole fold (`sym_laplacian`) stays the tests' oracle."""
    return det_int(band_reduce(*_klein_rows(rows, cols), [])[0])


def grid_config_order(rows, cols, value):
    """The order of the constant configuration `value` on the grid:
    `symmetric_config_order` on the Klein fold S, as the order of t
    against M from `band_reduce`."""
    band, width = _klein_rows(rows, cols)
    m, (t,) = band_reduce(band, width, [[value] * len(band)])
    return _order(m, t)


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
        # the up-set search of `enumerate_symmetric_recurrents`, one Dhar
        # burning pass per search node on the (undirected) grid's Klein
        # fold, the values above each floor untested since recurrents are
        # an up-set; counted without unfolding, its box, 4 per orbit,
        # checked before the fold is built
        _check_box([4] * (((rows + 1) // 2) * ((cols + 1) // 2)))
        (thresholds, out), _ = grid_fold(rows, cols, "klein")
        return len(_recurrents(thresholds, out, sink_weights(thresholds, out)))

    closed = cache(lambda: closed_form_count(parity, m, n))  # both forms
    methods = {
        "det": lambda: det_count(rows, cols),
        "enumerate": enumerate_count,
        "product": closed,
        "chebyshev": closed,
        "tilings": lambda: count_matchings(tiling_board(parity, m, n)),
    }
    return parity, m, n, methods


def _grid_row(rows, cols):
    parity, m, n, methods = count_methods(rows, cols)
    closed = methods["product"]()  # the product and Chebyshev forms
    values = {"det": methods["det"](),
              "block": block_tridiag_det(*parity_blocks(parity, n), m),
              "product": closed, "chebyshev": closed,
              "tilings": methods["tilings"]()}
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
    with every a_n from one row shooting (`a_seq_upto`).  The capped work
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
    """A staircase row agrees when all its boolean checks hold, any other
    row when it has at least two counts and all are equal; an error
    string in place of a count is not a count."""
    if row["kind"] == "staircase":
        return all(v for v in row["values"].values() if isinstance(v, bool))
    counts = [v for v in row["values"].values() if isinstance(v, int)]
    return len(counts) >= 2 and len(set(counts)) == 1
