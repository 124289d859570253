import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sandpiles import (
    a_seq,
    board_graph,
    count_matchings,
    diagonal_config,
    distance_config,
    enumerate_matchings,
    enumerate_spanning_trees,
    grid_sandpile,
    lu_wu_count,
    p_graph,
    pn_embed,
    reduced_laplacian,
    spanning_tree_weight_sum,
)
from sandpiles import tilings
from sandpiles.errors import SizeCapError
from sandpiles.graphs import MatchGraph
from sandpiles.linalg import det_int
from sandpiles.temperley import EmbeddedFamily


FIBONACCI_STRIP = [1, 1, 2, 3, 5, 8, 13, 21]  # 2 x n tiling counts


def test_two_by_n_counts_are_fibonacci():
    for n, expect in enumerate(FIBONACCI_STRIP, start=0):
        if n == 0:
            continue
        assert count_matchings(board_graph("plain", 2, n)) == expect


def test_plain_counts_known():
    assert count_matchings(board_graph("plain", 4, 4)) == 36
    assert count_matchings(board_graph("plain", 6, 6)) == 6728
    assert count_matchings(board_graph("plain", 8, 8)) == 12988816


def test_odd_board_has_no_tilings():
    assert count_matchings(board_graph("plain", 3, 3)) == 0


@pytest.mark.parametrize("kind", ["plain", "mobius", "mobius_weighted",
                                  "two_weighted"])
@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 4), (4, 2), (4, 4), (2, 6),
                                       (6, 2), (6, 4)])
def test_dp_matches_enumeration(kind, rows, cols):
    board = board_graph(kind, rows, cols)
    assert count_matchings(board) == sum(
        w for _, w in enumerate_matchings(board))


def test_dp_matches_enumeration_odd_rows():
    for kind, rows, cols in [("plain", 3, 4), ("mobius", 3, 4),
                             ("mobius_weighted", 3, 4), ("mobius_weighted", 3, 2),
                             ("plain", 9, 2), ("mobius_weighted", 7, 4)]:
        board = board_graph(kind, rows, cols)
        assert count_matchings(board) == sum(
            w for _, w in enumerate_matchings(board))


def test_mobius_counts_known():
    assert count_matchings(board_graph("mobius", 4, 4)) == 71
    assert count_matchings(board_graph("mobius", 2, 4)) == 7
    assert count_matchings(board_graph("mobius", 12, 12)) == lu_wu_count(6, 6) \
        == 341133743251787719
    # one column: each wrap pair once
    assert count_matchings(board_graph("mobius", 2, 1)) == 2
    assert count_matchings(board_graph("mobius", 4, 1)) == 3


@st.composite
def lattice_subgraphs(draw):
    """A lattice graph of at most 20 cells with cells and edges dropped
    at random and edge weights 1-3."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 20 // rows))
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)
             if draw(st.integers(0, 5))]
    assume(cells)
    kept = set(cells)
    edges = {}
    for r, c in cells:
        for v in ((r, c + 1), (r + 1, c)):
            w = draw(st.integers(0, 3)) if v in kept else 0
            if w:
                edges[((r, c), v)] = w
    return MatchGraph(cells, edges)


@settings(max_examples=300, deadline=None)
@given(lattice_subgraphs())
def test_kasteleyn_matches_enumeration(board):
    assert count_matchings(board) == sum(w for _, w in enumerate_matchings(board))


def test_disconnected_board_with_an_octagonal_face():
    # A ring around a missing centre has one face of length 8, where the
    # Kasteleyn signs fail; the separate domino makes E - V + 1 equal the
    # (zero) number of unit squares, so only the component term catches it.
    ring = [(r, c) for r in range(1, 4) for c in range(1, 4) if (r, c) != (2, 2)]
    cells = ring + [(1, 5), (1, 6)]
    edges = {(u, v): 1 for u in cells for v in cells
             if u < v and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1}
    board = MatchGraph(cells, edges)
    assert tilings._kasteleyn(board.vertices, board.edges) == 0
    assert count_matchings(board) == 2


@pytest.mark.parametrize("kind,m,n", [("D", 6, 6), ("Dprime", 6, 6),
                                      ("Ddoubleprime", 6, 6), ("P", 8, 8)])
def test_temperley_overlays_count_by_determinant(kind, m, n):
    fam = EmbeddedFamily(kind, m, n)
    assert count_matchings(fam.h_graph()) == det_int(reduced_laplacian(fam.graph))


def test_wide_boards_number_cells_along_the_longer_side(monkeypatch):
    # row-major numbering would put vertical neighbours about cols/2 apart
    seen = []
    monkeypatch.setattr(tilings, "det_int", lambda k: seen.append(k) or det_int(k))
    wide, tall = board_graph("plain", 4, 40), board_graph("plain", 40, 4)
    assert count_matchings(wide) == count_matchings(tall)
    k = seen[0]
    assert len(k) == 80
    assert max(abs(i - j) for i, row in enumerate(k)
               for j, x in enumerate(row) if x) <= 4


def test_enumeration_weights():
    # single weighted edge: one matching of weight 2
    b = MatchGraph([(1, 1), (1, 2)], {((1, 1), (1, 2)): 2})
    assert enumerate_matchings(b) == [([((1, 1), (1, 2))], 2)]
    assert count_matchings(b) == 2
    assert count_matchings(MatchGraph([], {})) == 1  # the empty matching


def test_enumeration_cap():
    big = board_graph("plain", 6, 6)
    with pytest.raises(SizeCapError):
        enumerate_matchings(big)


def test_non_grid_falls_back_to_enumeration():
    # remove two corners so the grid detector bails out
    b = board_graph("plain", 2, 3)
    gone = {(1, 1), (2, 3)}
    broken = MatchGraph(
        [v for v in b.vertices if v not in gone],
        {e: w for e, w in b.edges.items() if not gone & set(e)},
    )
    assert count_matchings(broken) == 1


def test_spanning_trees_match_determinant():
    for g in [grid_sandpile(2, 2), grid_sandpile(2, 3), grid_sandpile(3, 3),
              p_graph(2), p_graph(3)]:
        det = det_int(reduced_laplacian(g))
        trees = enumerate_spanning_trees(g)
        assert sum(w for _, w in trees) == det
        assert spanning_tree_weight_sum(g) == det
        assert len(set(p for p, _ in trees)) == len(trees)


def test_spanning_trees_weighted_graph():
    from sandpiles import d_family

    g = d_family("Dprime", 2, 2)
    det = det_int(reduced_laplacian(g))
    assert spanning_tree_weight_sum(g) == det == 71


def test_spanning_tree_cap():
    with pytest.raises(SizeCapError):
        enumerate_spanning_trees(grid_sandpile(4, 4))


def test_a_seq_values():
    assert [a_seq(n) for n in range(1, 6)] == [1, 3, 29, 901, 89893]
    assert a_seq(6) == 28793575


def test_a_seq_all_odd():
    assert all(a_seq(n) % 2 == 1 for n in range(1, 7))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_square_grid_tiling_factorization(n):
    count = count_matchings(board_graph("plain", 2 * n, 2 * n))
    assert count == 2**n * a_seq(n) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_distance_config_maps_to_diagonal(n):
    lap = reduced_laplacian(p_graph(n))
    s, t = distance_config(n), diagonal_config(n)
    image = tuple(sum(row[j] * s[j] for j in range(len(s))) for row in lap)
    assert image == t


def test_pn_embed_symmetry():
    n = 3
    g = grid_sandpile(2 * n, 2 * n)
    from sandpiles import fold, klein_action

    c = tuple(range(p_graph(n).vertex_count))
    emb = pn_embed(n, c)
    fold(klein_action(2 * n, 2 * n), emb)  # Klein-symmetric, must not raise
    # diagonal symmetry as well
    idx = {lab: k for k, lab in enumerate(g.labels)}
    for i, j in g.labels:
        assert emb[idx[(i, j)]] == emb[idx[(j, i)]]


def test_pn_embed_layout():
    # n = 2: the staircase values land with vertex (2,2) in the center
    vals = {(1, 1): 10, (2, 1): 20, (2, 2): 30}
    g = p_graph(2)
    c = tuple(vals[lab] for lab in g.labels)
    emb = pn_embed(2, c)
    rows = [emb[r * 4:(r + 1) * 4] for r in range(4)]
    assert rows[0] == (30, 20, 20, 30)
    assert rows[1] == (20, 10, 10, 20)
    assert rows[2] == (20, 10, 10, 20)
    assert rows[3] == (30, 20, 20, 30)


def test_pn_embed_rejects_wrong_length():
    with pytest.raises(ValueError):
        pn_embed(2, (1, 2))
