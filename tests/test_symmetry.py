import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (
    GroupAction,
    SandpileGraph,
    config_order,
    count_symmetric_recurrents,
    enumerate_recurrents,
    enumerate_symmetric_recurrents,
    fold,
    grid_sandpile,
    identity_config,
    klein_action,
    reduced_laplacian,
    stabilize,
    symmetric_config_order,
    symmetrized_laplacian,
    unfold,
)
from sandpiles.errors import SymmetryError
from sandpiles.linalg import det_int
from sandpiles.symmetry import OrbitSet

# one grid per parity class, both orientations of even x odd, and the
# degenerate shapes on which some Klein elements coincide
GRIDS = [(4, 6), (4, 5), (5, 4), (5, 7), (1, 5), (1, 6), (5, 1), (6, 1), (2, 2)]


def dense_symmetrized_laplacian(g, action):
    """The definition: entry (Gw, Gv) sums lap[u][w] over u in the orbit of v."""
    oset = OrbitSet(action)
    lap = reduced_laplacian(g)
    return [[sum(lap[u][w] for u in orb) for orb in oset.orbits]
            for w in oset.representatives]


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


def test_group_action_requires_identity():
    with pytest.raises(ValueError):
        GroupAction([(1, 0)])


def test_group_action_requires_closure():
    # a 3-cycle without its inverse is not closed
    with pytest.raises(ValueError):
        GroupAction([(0, 1, 2), (1, 2, 0)])


def test_group_action_deduplicates():
    act = GroupAction([(0, 1), (0, 1), (1, 0)])
    assert len(act.elements) == 2


def test_klein_action_sizes():
    assert len(klein_action(3, 4).elements) == 4
    # 1 x n grids: row reflection is trivial, so only 2 distinct elements
    assert len(klein_action(1, 4).elements) == 2
    assert len(klein_action(1, 1).elements) == 1


def test_klein_action_preserves_grid():
    g = grid_sandpile(4, 5)
    klein_action(4, 5).validate_weights(g)


def test_orbit_counts():
    assert len(OrbitSet(klein_action(4, 4)).orbits) == 4
    assert len(OrbitSet(klein_action(3, 3)).orbits) == 4
    assert len(OrbitSet(klein_action(2, 3)).orbits) == 2


def test_symmetrized_laplacian_triangle(triangle, triangle_swap):
    assert symmetrized_laplacian(triangle, triangle_swap) == [[2, -1], [-2, 2]]
    assert count_symmetric_recurrents(triangle, triangle_swap) == 2


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


@given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=50)
def test_fold_unfold_roundtrip(o):
    act = klein_action(4, 4)
    assert fold(act, unfold(act, o)) == tuple(o)


def test_fold_rejects_asymmetric(triangle_swap):
    with pytest.raises(SymmetryError):
        fold(triangle_swap, (0, 1, 0))


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
    assert len(sym) == count_symmetric_recurrents(g, act)


def test_identity_is_symmetric():
    for rows, cols in [(3, 3), (4, 4), (2, 5)]:
        g = grid_sandpile(rows, cols)
        act = klein_action(rows, cols)
        e = identity_config(g)
        fold(act, e)  # must not raise


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
    k = len(OrbitSet(act).orbits)
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


def test_symmetric_config_order_rejects_directed():
    g, act = directed_pair()
    with pytest.raises(ValueError):
        symmetric_config_order(g, act, (1, 1, 1))


def test_symmetric_config_order_pinned_all_twos():
    for size, order in [(12, 5758715), (20, 858944872773025112243)]:
        g = grid_sandpile(size, size)
        c = (2,) * g.vertex_count
        assert symmetric_config_order(g, klein_action(size, size), c) == order
