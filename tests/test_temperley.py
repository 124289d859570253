import pytest

from sandpiles import board_graph, reduced_laplacian
from sandpiles.graphs import MatchGraph
from sandpiles.linalg import det_int
from sandpiles.temperley import EmbeddedFamily
from sandpiles.tilings import enumerate_matchings


FOLDED_CASES = [
    ("D", 1, 1), ("D", 1, 2), ("D", 2, 1), ("D", 2, 2), ("D", 1, 3),
    ("D", 3, 1), ("D", 2, 3), ("D", 3, 2),
    ("Dprime", 1, 2), ("Dprime", 2, 2), ("Dprime", 1, 3), ("Dprime", 2, 3),
    ("Dprime", 3, 2),
    ("Ddoubleprime", 2, 2), ("Ddoubleprime", 2, 3), ("Ddoubleprime", 3, 2),
]

BOARD_OF = {"D": "plain", "Dprime": "mobius_weighted",
            "Ddoubleprime": "two_weighted"}


@pytest.mark.parametrize("kind,m,n", FOLDED_CASES)
def test_overlay_is_the_expected_board(kind, m, n):
    fam = EmbeddedFamily(kind, m, n)
    h = fam.h_graph()
    b = board_graph(BOARD_OF[kind], 2 * m, 2 * n)
    assert h.vertices == b.vertices
    assert h.edges == b.edges


def staircase_board(n):
    """The lattice region {(r, c): 1 <= c <= r <= 2n, r odd or c < r}
    as a board with unit edges between neighbouring points."""
    cells = [(r, c) for r in range(1, 2 * n + 1) for c in range(1, r + 1)
             if r % 2 or c < r]
    edges = {(u, v): 1 for u in cells for v in ((u[0] + 1, u[1]), (u[0], u[1] + 1))
             if v in cells}
    return MatchGraph(cells, edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_staircase_overlay_is_the_staircase_board(n):
    h = EmbeddedFamily("P", n, n).h_graph()
    b = staircase_board(n)
    assert h.vertices == b.vertices
    assert h.edges == b.edges


@pytest.mark.parametrize("kind,m,n", FOLDED_CASES)
def test_bijection_is_weight_preserving(kind, m, n):
    fam = EmbeddedFamily(kind, m, n)
    seen = {}
    for tree, w in fam.spanning_trees():
        edges, mw = fam.temperley_matching(tree)
        assert mw == w
        key = tuple(edges)
        assert key not in seen, "two trees mapped to the same matching"
        seen[key] = mw
    direct = enumerate_matchings(fam.h_graph())
    assert len(direct) == len(seen)
    assert sum(w for _, w in direct) == sum(seen.values())


@pytest.mark.parametrize("kind,m,n", FOLDED_CASES)
def test_tree_weight_sum_is_group_order(kind, m, n):
    fam = EmbeddedFamily(kind, m, n)
    det = det_int(reduced_laplacian(fam.graph))
    assert sum(w for _, w in fam.spanning_trees()) == det


@pytest.mark.parametrize("n", [1, 2, 3])
def test_staircase_bijection(n):
    fam = EmbeddedFamily("P", n, n)
    trees = fam.spanning_trees()
    seen = set()
    for tree, w in trees:
        edges, mw = fam.temperley_matching(tree)
        assert mw == w == 1
        seen.add(tuple(edges))
    assert len(seen) == len(trees)
    direct = enumerate_matchings(fam.h_graph())
    assert len(direct) == len(trees)
    assert len(trees) == det_int(reduced_laplacian(fam.graph))


def test_matching_rejects_non_tree():
    fam = EmbeddedFamily("D", 2, 2)
    with pytest.raises(ValueError):
        fam.temperley_matching({})


def test_embedding_needs_enough_columns():
    with pytest.raises(ValueError):
        EmbeddedFamily("Dprime", 2, 1)
    with pytest.raises(ValueError):
        EmbeddedFamily("Ddoubleprime", 1, 2)


def test_staircase_needs_equal_sizes():
    with pytest.raises(ValueError):
        EmbeddedFamily("P", 3, 5)
    assert EmbeddedFamily("P", 4, 4).graph.vertex_count == 10


def test_unknown_kind():
    with pytest.raises(ValueError):
        EmbeddedFamily("Q", 1, 1)
