from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (
    GroupAction,
    SandpileGraph,
    a_seq_upto,
    burning_config,
    config_order,
    dihedral_action,
    enumerate_recurrents,
    enumerate_symmetric_recurrents,
    fold,
    grid_fold,
    grid_sandpile,
    identity_config,
    klein_action,
    reduced_laplacian,
    stabilize,
    symmetric_config_order,
    symmetric_identity,
    symmetrized_laplacian,
    unfold,
)
from sandpiles import checks
from sandpiles.blocks import grid_parity, parity_blocks
from sandpiles.engine import (
    _descend,
    _fired,
    _floor,
    _identity,
    _order,
    _recurrents,
    _spread,
    _topple,
    sink_weights,
)
from sandpiles.errors import SymmetryError
from sandpiles.formulas import band_reduce, closed_form_count
from sandpiles.linalg import det_int, solve_int
from sandpiles.symmetry import (
    _folded_system,
    _quarter_cells,
    grid_identity,
    grid_torsion,
    system_matrix,
)

from conftest import assembled, burns_by_toppling, recurrents_by_filter

# one grid per parity class, both orientations of even x odd, and the
# degenerate shapes on which some Klein elements coincide
GRIDS = [(4, 6), (4, 5), (5, 4), (5, 7), (1, 5), (1, 6), (5, 1), (6, 1), (2, 2)]


def dense_symmetrized_laplacian(g, action):
    """The definition: entry (Gw, Gv) sums lap[u][w] over u in the orbit of v."""
    lap = reduced_laplacian(g)
    return [[sum(lap[u][w] for u in orb) for orb in action.orbits]
            for w in action.representatives]


def directed_pair():
    """a and b feed c, c returns weight 2 to each; swapping a, b keeps every
    weight, but the Laplacian is not symmetric."""
    graph = SandpileGraph(
        ["a", "b", "c"],
        {("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1, ("b", "c"): 1,
         ("c", "a"): 2, ("c", "b"): 2},
        {"a": 1, "b": 1, "c": 1},
        undirected=False,
    )
    return graph, GroupAction([(0, 1, 2), (1, 0, 2)])


def directed_grid(rows, cols):
    """The rows x cols grid with weight 2 on each edge pointing toward
    the centre, and 4 - degree to the sink: directed, and fixed by the
    Klein action, which preserves the distance to the centre."""
    def dist(i, j):
        return abs(2 * i - rows - 1) + abs(2 * j - cols - 1)

    grid = grid_sandpile(rows, cols)
    labels = grid.labels
    edges = {(labels[u], labels[v]): 1 + (dist(*labels[v]) < dist(*labels[u]))
             for u, out in enumerate(grid.out) for v in out}
    sink = {labels[u]: w for u, w in enumerate(grid.sink_weight) if w}
    return SandpileGraph(labels, edges, sink, undirected=False)


def test_group_action_is_the_group_generated():
    assert GroupAction([(1, 0)]).elements == [(0, 1), (1, 0)]
    assert GroupAction([(1, 2, 0)]).elements == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_group_action_rejects_non_permutations():
    for perms in ([(0, 0)], [(1, 0), (0, 1, 2)], [(1, 2)]):
        with pytest.raises(ValueError, match="not a permutation"):
            GroupAction(perms)


def test_group_action_deduplicates():
    act = GroupAction([(0, 1), (0, 1), (1, 0)])
    assert len(act.elements) == 2


def test_klein_action_sizes():
    assert len(klein_action(3, 4).elements) == 4
    assert len(klein_action(3, 4).generators) == 2
    # 1 x n grids: row reflection is trivial, so only 2 distinct elements
    assert len(klein_action(1, 4).elements) == 2
    assert len(klein_action(1, 1).elements) == 1


def test_klein_action_preserves_grid():
    g = grid_sandpile(4, 5)
    klein_action(4, 5).validate_weights(g)


@pytest.mark.parametrize("n", range(1, 14))
def test_dihedral_action_sizes(n):
    act = dihedral_action(n)
    h = (n + 1) // 2
    assert len(act.orbits) == h * (h + 1) // 2
    assert len(act.elements) == (8 if n >= 2 else 1)
    assert len(act.generators) == 2
    act.validate_weights(grid_sandpile(n, n))


@pytest.mark.parametrize("n", [*range(1, 13), 32, 33])
def test_dihedral_fold_matches_klein(n):
    g, klein, d4 = grid_sandpile(n, n), klein_action(n, n), dihedral_action(n)
    assert symmetric_identity(g, d4) == symmetric_identity(g, klein)
    for fill in (1, 2):
        c = (fill,) * g.vertex_count
        assert symmetric_config_order(g, d4, c) == symmetric_config_order(g, klein, c)


@pytest.mark.parametrize("n", range(1, 22))
def test_klein_count_is_the_square_of_the_dihedral_determinant(n):
    # det S_Klein = det(S_D4)^2 / 2^e on the n x n grid, e = n/2 for even
    # n and (n + 3)/2 for odd n.  det S_Klein = det S+ * det S- with
    # S+ = S_D4 and S- = S_D4 off both diagonals (`checks.det_count`),
    # and for even n = 2k the paper gives det S- = a_k
    # (test_odd_block_is_a_k).  For odd n, what stays observed, not
    # proved, is det S- * 2^e = det S_D4.
    g = grid_sandpile(n, n)
    e = n // 2 if n % 2 == 0 else (n + 3) // 2
    klein = det_int(symmetrized_laplacian(g, klein_action(n, n)))
    assert klein * 2**e == det_int(symmetrized_laplacian(g, dihedral_action(n))) ** 2


def klein_split(n):
    """The Klein fold S of the n x n grid and its transpose blocks: the
    D4 fold S+, and S-, the D4 fold on the orbits off both diagonals."""
    g = grid_sandpile(n, n)
    d4 = dihedral_action(n)
    plus = symmetrized_laplacian(g, d4)
    off = [o for o, r in enumerate(d4.representatives) if r // n != r % n]
    minus = [[plus[a][b] for b in off] for a in off]
    return symmetrized_laplacian(g, klein_action(n, n)), plus, minus


@pytest.mark.parametrize("n", [*range(1, 25), 40])
def test_transpose_split_keeps_the_klein_determinant(n):
    sym, plus, minus = klein_split(n)
    h = (n + 1) // 2
    assert (len(plus), len(minus)) == (h * (h + 1) // 2, h * (h - 1) // 2)
    assert det_int(plus) * det_int(minus) == det_int(sym)


def klein_transpose_blocks(n):
    """The oracle for `klein_split`'s blocks, built from the Klein fold S
    by a change of basis.  The transpose permutes the Klein orbits, by
    tau, and commutes with S, so in the basis of the vectors
    e_o + e_tau(o) (o < tau(o)) and e_o (o = tau(o)), then
    e_o - e_tau(o) (o < tau(o)), S is blockdiag(S+, S-): S+ has the
    entries S[p][o] + S[p][tau(o)] (S[p][o] when o is fixed), S- the
    entries S[p][o] - S[p][tau(o)], rows p and columns o in index order."""
    klein = klein_action(n, n)
    sym = symmetrized_laplacian(grid_sandpile(n, n), klein)
    tau = [klein.orbit_of[r % n * n + r // n] for r in klein.representatives]
    assert all(sym[tau[a]][tau[b]] == sym[a][b] for a in tau for b in tau)
    even = [(o, t) for o, t in enumerate(tau) if o <= t]
    odd = [(o, t) for o, t in even if o < t]
    plus = [[sym[p][o] + sym[p][t] if o < t else sym[p][o] for o, t in even]
            for p, _ in even]
    minus = [[sym[p][o] - sym[p][t] for o, t in odd] for p, _ in odd]
    return plus, minus


@pytest.mark.parametrize("n", range(1, 17))
def test_even_block_is_the_dihedral_fold(n):
    _, plus, _ = klein_split(n)
    assert plus == klein_transpose_blocks(n)[0]  # the same orbits, in the same order


@pytest.mark.parametrize("n", range(1, 17))
def test_odd_block_is_the_dihedral_fold_off_both_diagonals(n):
    _, _, minus = klein_split(n)
    assert minus == klein_transpose_blocks(n)[1]


@pytest.mark.parametrize("k", range(1, 13))
def test_odd_block_is_a_k(k):
    """On the 2k x 2k grid the paper counts 2^k a_k^2 Klein-symmetric
    recurrents (tilings of the 2k x 2k board), so det S_Klein =
    2^k a_k^2; the staircase P_k is the D4 fold with its diagonal rows
    doubled (`checks._phi_check`), so det S+ = det S_D4 = 2^k a_k.
    Hence det S- = a_k."""
    _, _, minus = klein_split(2 * k)
    assert det_int(minus) == a_seq_upto(k)[-1]


def record_det_int_sizes(monkeypatch):
    """Wrap `det_int` where `det_count` calls it; the list fills with
    the order of each matrix eliminated."""
    sizes = []

    def recorded(m):
        sizes.append(len(m))
        return det_int(m)

    monkeypatch.setattr(checks, "det_int", recorded)
    return sizes


@pytest.mark.parametrize("rows", range(1, 17))
def test_det_count_is_the_bareiss_determinant_of_the_fold(rows):
    for cols in range(1, 17):
        assert checks.det_count(rows, cols) == det_int(checks.sym_laplacian(rows, cols))


@pytest.mark.parametrize("rows,cols", [(31, 33), (33, 31), (40, 40), (64, 63)])
def test_det_count_matches_the_product_form(rows, cols):
    parity, m, n, _ = grid_parity(rows, cols)
    assert checks.det_count(rows, cols) == closed_form_count(parity, m, n, "product")


@pytest.mark.parametrize("n", range(1, 13))
def test_det_count_on_a_square_grid_eliminates_half_a_side(n, monkeypatch):
    expect = det_int(symmetrized_laplacian(grid_sandpile(n, n), klein_action(n, n)))
    sizes = record_det_int_sizes(monkeypatch)
    assert checks.det_count(n, n) == expect
    assert sizes and max(sizes) <= (n + 1) // 2


@pytest.mark.parametrize("rows,cols", [(4, 400), (31, 33)])
def test_det_count_lays_the_blocks_along_the_shorter_side(rows, cols, monkeypatch):
    sizes = record_det_int_sizes(monkeypatch)
    wide, tall = checks.det_count(rows, cols), checks.det_count(cols, rows)
    assert wide == tall
    assert sizes == [(min(rows, cols) + 1) // 2] * 2


def sparse_rows(matrix):
    """A dense matrix as the rows of (column, entry) pairs that
    `band_reduce` takes."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in matrix]


def test_band_reduce_refuses_other_shapes():
    # the 6 x 6 fold: three orbit rows of width 3, orbit o = 3 i + j
    def fold():
        return system_matrix(*_folded_system(grid_sandpile(6, 6), klein_action(6, 6)))

    below = fold()
    below[6][0] = -1  # orbit 0 feeds orbit 6, two orbit rows down
    middle = fold()
    middle[5][1] = -1  # orbit 1 feeds orbit 5, more than 3 behind
    above = fold()
    above[0][6] = -1  # and orbit 6 feeds orbit 0, two orbit rows up
    upper = fold()
    upper[0][3] = -2  # orbit 3 feeds orbit 0 twice: a coupling -2
    missing = fold()
    missing[1][4] = 0  # no coupling at all
    for bad in (below, middle, above, upper, missing):
        with pytest.raises(ValueError):
            band_reduce(sparse_rows(bad), 3, [])
    path = system_matrix(*_folded_system(grid_sandpile(6, 1), klein_action(6, 1)))
    with pytest.raises(ValueError):
        band_reduce(sparse_rows(path), 2, [])  # 3 orbits are not whole rows of 2
    with pytest.raises(ValueError):
        band_reduce(sparse_rows(fold()), 3, [[1] * 8])  # c has 8 entries, not 9


def test_band_reduce_takes_any_band_inside_the_couplings():
    # the shapes the block recurrence did not take: a coupling -2 below
    # and a diagonal entry that breaks (A, ..., A, B)
    lower = system_matrix(*_folded_system(grid_sandpile(6, 6), klein_action(6, 6)))
    lower[3][0] = -2  # orbit 0 feeds orbit 3 twice
    diagonal = system_matrix(*_folded_system(grid_sandpile(6, 6), klein_action(6, 6)))
    diagonal[4][4] += 1
    for matrix in (lower, diagonal):
        c = list(range(1, 10))
        m, (t,) = band_reduce(sparse_rows(matrix), 3, [c])
        assert det_int(m) == det_int(matrix)
        assert _order(m, t) == _order(matrix, c)


@pytest.mark.parametrize("width,blocks", [(1, 1), (1, 5), (3, 1), (2, 3), (4, 2)])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_band_reduce_keeps_det_and_orders(width, blocks, data):
    k = width * blocks
    entry = st.integers(-3, 3)
    matrix = [[0] * k for _ in range(k)]
    for r in range(k):
        for j in range(max(min(r, k - width) - width, 0), min(r + width, k)):
            matrix[r][j] = data.draw(entry)
        if r + width < k:
            matrix[r][r + width] = -1
    cs = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=2))
    m, ts = band_reduce(sparse_rows(matrix), width, cs)
    assert len(m) == width and len(ts) == len(cs)
    det = det_int(m)
    assert det == det_int(matrix)
    if det:
        for c, t in zip(cs, ts):
            assert _order(m, t) == _order(matrix, c)


@pytest.mark.parametrize("rows", range(1, 17))
def test_fold_blocks_are_the_papers_parity_blocks(rows):
    """Paper claim (i): the Klein fold of every grid, in `grid_parity`'s
    orientation and numbered row by row, is the block matrix of
    `parity_blocks`: diagonal blocks (A, ..., A, B), couplings -I and
    -C at block (m, m-1)."""
    for cols in range(1, 17):
        parity, m, n, transposed = grid_parity(rows, cols)
        r, c = (cols, rows) if transposed else (rows, cols)
        fold = system_matrix(*grid_fold(r, c, "klein")[0])
        assert fold == assembled(*parity_blocks(parity, n), m)


def maps_to_perms(m, n, maps):
    """The permutations of the row-major cell indices that the 1-based
    cell maps (i, j) -> f(i, j) induce on the m x n grid."""
    cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return {tuple((a - 1) * n + b - 1 for a, b in (f(i, j) for i, j in cells))
            for f in maps}


@pytest.mark.parametrize("n", [*range(1, 10), 32, 33])
def test_grid_groups_are_the_cell_reflections(n):
    r = n + 1
    for m in {*range(1, 10), n}:
        assert klein_action(m, n).elements == sorted(maps_to_perms(m, n, [
            lambda i, j: (i, j),
            lambda i, j: (i, n - j + 1),
            lambda i, j: (m - i + 1, j),
            lambda i, j: (m - i + 1, n - j + 1),
        ]))
    assert dihedral_action(n).elements == sorted(maps_to_perms(n, n, [
        lambda i, j: (i, j),
        lambda i, j: (i, r - j),
        lambda i, j: (r - i, j),
        lambda i, j: (r - i, r - j),
        lambda i, j: (j, i),
        lambda i, j: (j, r - i),
        lambda i, j: (r - j, i),
        lambda i, j: (r - j, r - i),
    ]))


def test_orbit_counts():
    assert len(klein_action(4, 4).orbits) == 4
    assert len(klein_action(3, 3).orbits) == 4
    assert len(klein_action(2, 3).orbits) == 2
    # orbits in the order of their least members, which represent them
    act = klein_action(3, 4)
    assert act.orbits[:2] == [[0, 3, 8, 11], [1, 2, 9, 10]]
    assert act.representatives == [0, 1, 4, 5]
    assert [act.orbit_of[v] for v in (11, 2, 7, 6)] == [0, 1, 2, 3]


@pytest.mark.parametrize("rows", range(1, 17))
def test_grid_fold_is_the_generic_fold(rows):
    for cols in range(1, 17):
        g = grid_sandpile(rows, cols)
        actions = {"klein": klein_action(rows, cols)}
        if rows == cols:
            actions["d4"] = dihedral_action(rows)
        for group, action in actions.items():
            (thresholds, out), orbit = grid_fold(rows, cols, group)
            assert (thresholds, out) == tuple(_folded_system(g, action))
            assert [orbit(i, j) for i in range(rows)
                    for j in range(cols)] == action.orbit_of
            assert tuple(sink_weights(thresholds, out)) == fold(action, burning_config(g))


def test_grid_fold_refuses_other_groups_and_shapes():
    with pytest.raises(ValueError, match="square"):
        grid_fold(4, 5, "d4")
    with pytest.raises(ValueError, match="unknown"):
        grid_fold(4, 4, "dihedral")
    with pytest.raises(ValueError, match="positive"):
        grid_fold(0, 4, "klein")


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 3), (4, 5), (6, 6), (7, 4)])
def test_system_matrix_is_the_symmetrized_laplacian(rows, cols):
    g = grid_sandpile(rows, cols)
    action = dihedral_action(rows) if rows == cols else klein_action(rows, cols)
    group = "d4" if rows == cols else "klein"
    assert (system_matrix(*grid_fold(rows, cols, group)[0])
            == symmetrized_laplacian(g, action) == dense_symmetrized_laplacian(g, action))


def test_symmetrized_laplacian_triangle(triangle, triangle_swap):
    assert symmetrized_laplacian(triangle, triangle_swap) == [[2, -1], [-2, 2]]
    assert det_int(symmetrized_laplacian(triangle, triangle_swap)) == 2


def test_symmetrized_laplacian_4x4():
    sym = symmetrized_laplacian(grid_sandpile(4, 4), klein_action(4, 4))
    assert sym == [
        [4, -1, -1, 0],
        [-1, 3, 0, -1],
        [-1, 0, 3, -1],
        [0, -1, -1, 2],
    ]
    assert det_int(sym) == 36


def test_symmetrized_laplacian_matches_dense_definition(triangle, triangle_swap):
    assert (symmetrized_laplacian(triangle, triangle_swap)
            == dense_symmetrized_laplacian(triangle, triangle_swap))
    for rows, cols in GRIDS + [(9, 8), (8, 9), (9, 9), (10, 10)]:
        g, act = grid_sandpile(rows, cols), klein_action(rows, cols)
        assert symmetrized_laplacian(g, act) == dense_symmetrized_laplacian(g, act)


def test_symmetrized_laplacian_directed():
    g, act = directed_pair()
    assert symmetrized_laplacian(g, act) == dense_symmetrized_laplacian(g, act)
    # the transposed fold (summing lap[w][u]) would give [[2, -1], [-4, 5]]
    assert symmetrized_laplacian(g, act) == [[2, -2], [-2, 5]]


def test_symmetrized_laplacian_rejects_bad_action(triangle):
    # w has a different sink weight than u, so swapping them is invalid
    bad = GroupAction([(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        symmetrized_laplacian(triangle, bad)


def test_validate_weights_checks_every_generator(triangle, triangle_swap):
    triangle_swap.validate_weights(triangle)
    with pytest.raises(ValueError, match="sink edges"):
        GroupAction([(1, 0, 2), (2, 1, 0)]).validate_weights(triangle)


def test_fold_rejects_an_action_of_another_degree():
    with pytest.raises(ValueError, match="degree"):
        symmetrized_laplacian(grid_sandpile(1, 3), GroupAction([(0, 1), (1, 0)]))


def test_self_loop_laplacian_matches_the_fold():
    # firing a sends 2 grains to the sink and 1 back to a itself
    g = SandpileGraph(["a"], {("a", "a"): 1}, {"a": 2})
    trivial = GroupAction([(0,)])
    assert reduced_laplacian(g) == symmetrized_laplacian(g, trivial) == [[2]]
    assert config_order(g, (1,)) == symmetric_config_order(g, trivial, (1,)) == 2


@given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=50)
def test_fold_unfold_roundtrip(o):
    act = klein_action(4, 4)
    assert fold(act, unfold(act, o)) == tuple(o)


def test_fold_rejects_asymmetric(triangle_swap):
    with pytest.raises(SymmetryError):
        fold(triangle_swap, (0, 1, 0))


def test_fold_rejects_wrong_length():
    for c in [(1,) * 6, (1,) * 2]:
        with pytest.raises(ValueError, match="wrong length"):
            fold(klein_action(2, 2), c)


def test_apply_rejects_wrong_length():
    act = klein_action(2, 2)
    for c in [(1, 2, 3), (1, 2, 3, 4, 5)]:
        with pytest.raises(ValueError, match="wrong length"):
            act.apply(act.elements[1], c)


def test_apply_rejects_a_permutation_outside_the_group():
    act = klein_action(2, 2)
    for p in [(1, 1, 1, 1), (1, 0), (1, 0, 2, 3)]:
        with pytest.raises(ValueError, match="not an element"):
            act.apply(p, (1, 2, 3, 4))
    assert act.apply([1, 0, 3, 2], (1, 2, 3, 4)) == (2, 1, 4, 3)  # a list p is taken as a tuple


def test_symmetric_recurrents_triangle(triangle, triangle_swap):
    found = enumerate_symmetric_recurrents(triangle, triangle_swap)
    assert sorted(found) == [(2, 2, 0), (2, 2, 1)]


def test_symmetric_recurrents_are_the_symmetric_ones():
    g = grid_sandpile(2, 3)
    act = klein_action(2, 3)
    sym = set(enumerate_symmetric_recurrents(g, act))
    by_filter = {
        c for c in enumerate_recurrents(g)
        if all(act.apply(p, c) == c for p in act.elements)
    }
    assert sym == by_filter
    assert len(sym) == det_int(symmetrized_laplacian(g, act))


def test_identity_is_symmetric():
    for rows, cols in [(3, 3), (4, 4), (2, 5)]:
        g = grid_sandpile(rows, cols)
        act = klein_action(rows, cols)
        e = identity_config(g)
        fold(act, e)  # must not raise


# every parity class: 1 x 1, the lines 1 x n and n x 1 (two Klein
# elements coincide), even rows (the two middle rows form one orbit and
# are adjacent, so an orbit feeds itself), odd x odd (a size-1 centre
# orbit), both orientations, up to 33 x 33
IDENTITY_GRIDS = [(1, 1), (1, 6), (1, 7), (6, 1), (7, 1), (2, 2), (2, 3),
                  (3, 2), (3, 3), (4, 4), (4, 5), (5, 4), (5, 5), (6, 9),
                  (9, 8), (9, 9), (16, 16), (17, 16), (33, 32), (32, 33),
                  (33, 33)]


@pytest.mark.parametrize("rows,cols", IDENTITY_GRIDS)
def test_symmetric_identity_matches_unfolded(rows, cols):
    g = grid_sandpile(rows, cols)
    assert symmetric_identity(g, klein_action(rows, cols)) == identity_config(g)


def zero_start_identity(rows, cols):
    """`_identity` on `grid_identity`'s fold with no guess, unfolded."""
    system, orbit = grid_fold(rows, cols, "d4" if rows == cols else "klein")
    e = _identity(*system)
    return tuple(e[orbit(i, j)] for i in range(rows) for j in range(cols))


class IdentitySpy:
    """Count the stabilizations (`_topple` calls) `engine` runs and
    record, for each Dhar pass (`_spread` call), whether it burnt every
    vertex."""

    def __init__(self, monkeypatch):
        self.topples, self.passes = 0, []
        monkeypatch.setattr("sandpiles.engine._topple", self.topple)
        monkeypatch.setattr("sandpiles.engine._spread", self.spread)

    def topple(self, *args):
        self.topples += 1
        return _topple(*args)

    def spread(self, thresholds, out, grains, burnt, ready):
        _spread(thresholds, out, grains, burnt, ready)
        self.passes.append(all(burnt))

    def identity(self, rows, cols):
        """grid_identity(rows, cols), with the counts reset before it."""
        self.topples, self.passes = 0, []
        return grid_identity(rows, cols)


def check_against_zero_start(spy, rows, cols):
    """grid_identity is the zero-start identity, from one stabilization,
    ending on the first burning pass that burns everything."""
    want = zero_start_identity(rows, cols)
    assert spy.identity(rows, cols) == want
    assert spy.topples == 1
    assert spy.passes[-1] and not any(spy.passes[:-1])
    return len(spy.passes)


@pytest.mark.parametrize("rows", range(1, 31))
def test_grid_identity_is_the_zero_start_identity(rows, monkeypatch):
    spy = IdentitySpy(monkeypatch)
    for cols in range(1, 31):
        check_against_zero_start(spy, rows, cols)


@pytest.mark.parametrize("rows,cols", [(48, 48), (64, 63), (1, 2000), (2000, 1), (2, 2000),
                                       (2000, 2), (3, 900)])
def test_grid_identity_is_the_zero_start_identity_on_large_grids(rows, cols, monkeypatch):
    check_against_zero_start(IdentitySpy(monkeypatch), rows, cols)


@pytest.mark.parametrize("scale,rows,cols,descends", [
    (0.1, 48, 48, True),  # the start is far past the odometer: entries go negative
    (0.1, 3, 40, True),
    (0.5, 20, 13, True),
    (10, 48, 48, False),  # the start is short of the odometer, so one pass certifies it
])
def test_grid_identity_descends_when_the_guess_is_wrong(scale, rows, cols, descends,
                                                        monkeypatch):
    spy = IdentitySpy(monkeypatch)
    monkeypatch.setattr("sandpiles.symmetry.grid_torsion", lambda *args: [
        scale * y for y in grid_torsion(*args)])
    assert (check_against_zero_start(spy, rows, cols) > 1) == descends


def test_grid_identity_at_48x48_fires_fewer_than_30000_times(monkeypatch):
    # forward firings (`_topple`) plus untopplings (`_fired` by a negative
    # vector); 2,560 of them when this was written
    fired = []

    def topple(thresholds, out, c):
        stable, fire = _topple(thresholds, out, c)
        fired.append(sum(fire))
        return stable, fire

    def untopple(thresholds, out, c, u):
        fired.append(sum(-k for k in u if k < 0))
        return _fired(thresholds, out, c, u)

    monkeypatch.setattr("sandpiles.engine._topple", topple)
    monkeypatch.setattr("sandpiles.engine._fired", untopple)
    grid_identity(48, 48)
    assert sum(fired) < 3_000
    fired.clear()
    _identity(*grid_fold(48, 48, "d4")[0])
    assert sum(fired) == 134_844


@given(st.sampled_from(["klein", "d4"]), st.integers(1, 12), st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_descent_from_any_start_stays_above_the_odometer(group, rows, cols, data):
    # the toppling of `_identity` from x - S u for a random 0 <= u <= 3 u*,
    # u* the zero-start odometer of x: the forward toppling ends at or
    # above u*, and every untoppling round of `_descend` keeps the firing
    # vector there, ending at u* and the zero-start identity
    cols = rows if group == "d4" else cols
    thresholds, out = grid_fold(rows, cols, group)[0]
    twice = [2 * (t - 1) for t in thresholds]
    x = [a - b for a, b in zip(twice, _topple(thresholds, out, twice)[0])]
    e, odometer = _topple(thresholds, out, x)
    u = data.draw(st.tuples(*(st.integers(0, 3 * k) for k in odometer)))
    c, fire = _topple(thresholds, out, _fired(thresholds, out, x, u))
    now = [a + b for a, b in zip(u, fire)]
    assert all(a >= b for a, b in zip(now, odometer))
    rounds = []

    def untopple(thresholds, out, c, u):
        rounds.append(u)
        return _fired(thresholds, out, c, u)

    with mock.patch("sandpiles.engine._fired", untopple):
        assert _descend(thresholds, out, c, sink_weights(thresholds, out)) == e
    for step in rounds:
        assert all(k <= 0 for k in step)
        now = [a + k for a, k in zip(now, step)]
        assert all(a >= b for a, b in zip(now, odometer))
    assert now == list(odometer)


def torsion_guesses(size):
    """Float vectors of the given length: zeros, negative floats, or any
    floats in [-3, 10]."""
    return st.one_of(
        st.just([0.0] * size),
        st.lists(st.floats(-50, 0, exclude_max=True), min_size=size, max_size=size),
        st.lists(st.floats(-3, 10), min_size=size, max_size=size))


@given(st.sampled_from(["klein", "d4"]), st.integers(1, 12), st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_identity_from_any_torsion_guess_is_the_zero_start_identity(group, rows, cols, data):
    cols = rows if group == "d4" else cols
    system = grid_fold(rows, cols, group)[0]
    tau = data.draw(torsion_guesses(len(system[0])))
    assert _identity(*system, tau) == _identity(*system)


def check_torsion_guess(rows, cols):
    """`grid_torsion` is within [0, 0.06] above the discrete torsion
    S^-1 1 of the fold, found by an exact solve."""
    group = "d4" if rows == cols else "klein"
    thresholds, out = grid_fold(rows, cols, group)[0]
    det, y = solve_int(system_matrix(thresholds, out), [1] * len(thresholds))
    guess = grid_torsion(rows, cols, _quarter_cells(rows, cols, group))
    assert all(0 <= g - Fraction(v, det) <= 0.06 for g, v in zip(guess, y))


@pytest.mark.parametrize("rows", range(1, 21))
def test_grid_torsion_lies_just_above_the_torsion(rows):
    for cols in range(1, 21):
        check_torsion_guess(rows, cols)


@pytest.mark.parametrize("rows,cols", [(1, 2000), (2000, 1), (2, 300), (3, 200), (200, 3)])
def test_grid_torsion_runs_the_parabola_across_the_shorter_side(rows, cols):
    check_torsion_guess(rows, cols)


def test_symmetric_identity_triangle_and_directed(triangle, triangle_swap):
    assert symmetric_identity(triangle, triangle_swap) == identity_config(triangle)
    g, act = directed_pair()
    assert symmetric_identity(g, act) == identity_config(g)
    for shape in [(4, 4), (5, 5), (4, 7), (6, 1)]:
        g = directed_grid(*shape)
        assert symmetric_identity(g, klein_action(*shape)) == identity_config(g)


@given(st.sampled_from([(4, 4), (4, 5), (5, 5), (3, 6), (1, 7), (2, 2), (6, 6)]),
       st.booleans(),
       st.lists(st.integers(0, 40), min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_folded_stabilization_is_the_fold_of_stabilize(shape, directed, values):
    g = directed_grid(*shape) if directed else grid_sandpile(*shape)
    act = klein_action(*shape)
    o = values[:len(act.orbits)]
    stable, fire = stabilize(g, unfold(act, o))
    assert _topple(*_folded_system(g, act), o) == (fold(act, stable), fold(act, fire))


def symmetric_recurrents_by_filter(g, act):
    """The unfolded oracle: every symmetric stable configuration, in the
    order of its orbit vector, kept when the toppling burning test
    accepts it."""
    degs = [g.out_degree[r] for r in act.representatives]
    beta = burning_config(g)
    return [unfold(act, o) for o in product(*(range(d) for d in degs))
            if burns_by_toppling(g.out_degree, g.out, unfold(act, o), beta)]


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3),
                                       (3, 3), (3, 4), (4, 4), (5, 3), (5, 4),
                                       (6, 3), (6, 4), (4, 6)])
def test_folded_burning_matches_unfolded_filter(rows, cols):
    g, act = grid_sandpile(rows, cols), klein_action(rows, cols)
    found = enumerate_symmetric_recurrents(g, act)
    assert found == symmetric_recurrents_by_filter(g, act)
    assert len(found) == det_int(symmetrized_laplacian(g, act))


def test_folded_burning_matches_unfolded_filter_triangle(triangle, triangle_swap):
    assert (enumerate_symmetric_recurrents(triangle, triangle_swap)
            == symmetric_recurrents_by_filter(triangle, triangle_swap))


# Klein folds of every parity class, odd grids with a centre orbit, the
# lines 1 x n and n x 1, and D4 folds of square grids
FOLDS = ([("klein", shape) for shape in [(1, 1), (1, 5), (1, 6), (6, 1), (2, 2),
                                          (3, 3), (3, 4), (3, 5), (5, 3), (4, 5),
                                          (6, 4)]]
         + [("dihedral", (n, n)) for n in range(1, 7)])


@pytest.mark.parametrize("group,shape", FOLDS)
def test_up_set_search_matches_the_filter_on_folds(group, shape):
    g = grid_sandpile(*shape)
    act = klein_action(*shape) if group == "klein" else dihedral_action(shape[0])
    system = (*_folded_system(g, act), fold(act, burning_config(g)))
    assert _recurrents(*system) == recurrents_by_filter(*system)


def test_up_set_search_matches_the_filter_triangle(triangle, triangle_swap):
    # the u, v orbit feeds its own representative
    system = (*_folded_system(triangle, triangle_swap),
              fold(triangle_swap, burning_config(triangle)))
    assert _recurrents(*system) == recurrents_by_filter(*system) == [(2, 0), (2, 1)]


@pytest.mark.parametrize("rows,cols", [(8, 4), (4, 8), (6, 6)])
def test_up_set_search_work_is_bounded_by_the_output(monkeypatch, rows, cols):
    calls = []

    def counted(*args):
        calls.append(None)
        return _floor(*args)

    monkeypatch.setattr("sandpiles.engine._floor", counted)
    g, act = grid_sandpile(rows, cols), klein_action(rows, cols)
    found = enumerate_symmetric_recurrents(g, act)
    assert len(found) == det_int(symmetrized_laplacian(g, act))
    assert len(calls) <= len(act.orbits) * len(found) + 1
    # the deepest coordinate's top interval is emitted with no pass, so
    # there are fewer passes than results (1,138 for 2,245 at 8 x 4)
    assert len(calls) < len(found)


def test_symmetric_recurrents_refuse_directed_graphs():
    g, act = directed_pair()
    with pytest.raises(ValueError):
        enumerate_symmetric_recurrents(g, act)
    with pytest.raises(ValueError):
        enumerate_symmetric_recurrents(directed_grid(3, 4), klein_action(3, 4))


def test_stabilization_commutes_with_action():
    g = grid_sandpile(3, 3)
    act = klein_action(3, 3)
    for c in [(4, 0, 0, 0, 9, 0, 0, 0, 1), (5, 5, 5, 0, 0, 0, 2, 7, 1)]:
        stab = stabilize(g, c)[0]
        for p in act.elements:
            assert stabilize(g, act.apply(p, c))[0] == act.apply(p, stab)


@pytest.mark.parametrize("rows,cols", GRIDS)
@pytest.mark.parametrize("fill", [1, 2])
def test_symmetric_config_order_matches_unfolded(rows, cols, fill):
    g = grid_sandpile(rows, cols)
    c = (fill,) * g.vertex_count
    assert symmetric_config_order(g, klein_action(rows, cols), c) == config_order(g, c)


@given(st.sampled_from([(4, 4), (4, 5), (5, 5), (3, 6), (1, 7)]),
       st.lists(st.integers(-3, 7), min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_symmetric_config_order_random_symmetric(shape, values):
    rows, cols = shape
    act = klein_action(rows, cols)
    k = len(act.orbits)
    c = unfold(act, values[:k])
    g = grid_sandpile(rows, cols)
    assert symmetric_config_order(g, act, c) == config_order(g, c)


def test_symmetric_config_order_triangle(triangle, triangle_swap):
    for c in [(1, 1, 0), (2, 2, 1), (0, 0, 1)]:
        assert (symmetric_config_order(triangle, triangle_swap, c)
                == config_order(triangle, c))


def test_symmetric_config_order_rejects_asymmetric():
    g = grid_sandpile(4, 4)
    c = (1,) + (2,) * 15
    with pytest.raises(SymmetryError):
        symmetric_config_order(g, klein_action(4, 4), c)
    with pytest.raises(ValueError):
        symmetric_config_order(g, klein_action(4, 4), (2,) * 17)


def test_symmetric_config_order_directed_matches_unfolded():
    # the symmetrized Laplacian is the fold of L^T, the matrix that
    # config_order solves against, so directed graphs fold as well
    g, act = directed_pair()
    for a in range(6):
        for c in range(6):
            config = (a, a, c)
            assert symmetric_config_order(g, act, config) == config_order(g, config)


@given(st.sampled_from([(3, 4), (4, 4), (4, 5), (5, 5), (1, 6)]),
       st.lists(st.integers(-3, 7), min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_symmetric_config_order_directed_grids(shape, values):
    g, act = directed_grid(*shape), klein_action(*shape)
    assert not g.undirected
    c = unfold(act, values[:len(act.orbits)])
    assert symmetric_config_order(g, act, c) == config_order(g, c)


@given(st.sampled_from([(1, 1), (1, 5), (2, 3), (3, 3), (3, 5), (4, 4), (5, 2)]),
       st.booleans(), st.lists(st.integers(-3, 7), min_size=16, max_size=16))
@settings(max_examples=100, deadline=None)
def test_breadth_first_numbering_keeps_the_order(shape, directed, values):
    g = directed_grid(*shape) if directed else grid_sandpile(*shape)
    act = klein_action(*shape)
    o = values[:len(act.orbits)]
    assert symmetric_config_order(g, act, unfold(act, o)) == _order(
        symmetrized_laplacian(g, act), o)
    c = values[:g.vertex_count]
    assert config_order(g, c) == _order(list(zip(*reduced_laplacian(g))), c)


def test_wide_and_tall_grids_have_the_same_order():
    # numbered by orbit, 3 x 400 lays its band along the long side; the
    # breadth-first numbering gives it the band of 400 x 3
    twos = (2,) * 1200
    wide, tall = (symmetric_config_order(grid_sandpile(*shape), klein_action(*shape), twos)
                  for shape in ((3, 400), (400, 3)))
    assert wide == tall == checks.grid_config_order(400, 3, 2)


@pytest.mark.parametrize("rows", range(1, 17))
def test_grid_config_order_is_the_order_on_the_whole_fold(rows):
    """`checks.grid_config_order` solves one ceil(min/2)-square matrix;
    the oracle solves the whole Klein fold, and the D4 fold on squares.
    The 1 x n, 2 x n and n x 1 grids are those whose reduced matrix is
    the whole fold of one orbit row, or of one orbit column."""
    for cols in range(1, 17):
        g = grid_sandpile(rows, cols)
        actions = [klein_action(rows, cols)]
        if rows == cols:
            actions.append(dihedral_action(rows))
        for value in (1, 2, 3):
            c = (value,) * g.vertex_count
            order = checks.grid_config_order(rows, cols, value)
            assert all(order == symmetric_config_order(g, a, c) for a in actions)


@pytest.mark.parametrize("rows,cols", [(48, 47), (64, 64)])
def test_grid_config_order_on_large_grids(rows, cols):
    g = grid_sandpile(rows, cols)
    actions = [klein_action(rows, cols)]
    if rows == cols:
        actions.append(dihedral_action(rows))
    c = (2,) * g.vertex_count
    order = checks.grid_config_order(rows, cols, 2)
    assert all(order == symmetric_config_order(g, a, c) for a in actions)


def test_symmetric_config_order_pinned_all_twos():
    for size, order in [(12, 5758715), (20, 858944872773025112243)]:
        g = grid_sandpile(size, size)
        c = (2,) * g.vertex_count
        assert symmetric_config_order(g, klein_action(size, size), c) == order
