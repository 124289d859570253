import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sandpiles import (
    a_seq,
    dihedral_action,
    a_seq_upto,
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
    unfold,
)
from sandpiles import checks, tilings
from sandpiles.errors import SizeCapError
from sandpiles.graphs import MatchGraph
from sandpiles.linalg import det_int, leading_minors, schur_block
from sandpiles.temperley import TREE_VERTEX_CAP, EmbeddedFamily, _tree_choices, _walk_trees


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


def test_even_odd_board_at_one_column():
    # the 2m x 2 board is the general even x odd board at n = 1; the
    # (2m - 1) x 2 board has the same count
    for m in range(1, 41):
        count = count_matchings(board_graph("mobius_weighted", 2 * m, 2))
        assert count == count_matchings(board_graph("mobius_weighted", 2 * m - 1, 2))
        assert count == checks.det_count(2 * m, 1)


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


@pytest.mark.parametrize("rows", range(1, 29))
def test_mobius_matches_enumeration(rows):
    for cols in range(1, 28 // rows + 1):
        if cols == 1 and rows % 2:
            continue  # the middle wrap edge would be a loop
        board = board_graph("mobius", rows, cols)
        assert count_matchings(board) == sum(w for _, w in enumerate_matchings(board))


@pytest.mark.parametrize("m", range(1, 7))
def test_mobius_matches_lu_wu(m):
    for n in range(1, 7):
        assert count_matchings(board_graph("mobius", 2 * m, 2 * n)) == lu_wu_count(m, n)


@st.composite
def wrap_boards(draw):
    """The full grid of at most 20 cells with unit weights 1-3, about one
    unit edge in seven dropped, and a random subset of the twisted wrap
    edges {(h, 1), (rows - h + 1, cols)} with weights 1-3."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 20 // rows))
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    edges = {}
    for r, c in cells:
        for v in ((r, c + 1), (r + 1, c)):
            w = draw(st.integers(0, 6))
            if v[0] <= rows and v[1] <= cols and w:
                edges[((r, c), v)] = 1 + w % 3
    for h in range(1, rows + 1):
        u, v = sorted([(h, 1), (rows - h + 1, cols)])
        if u != v and (cols > 1 or u[0] == h) and draw(st.booleans()):
            edges[(u, v)] = edges.get((u, v), 0) + draw(st.integers(1, 3))
    return MatchGraph(cells, edges)


@settings(max_examples=300, deadline=None)
@given(wrap_boards())
def test_wrap_boards_match_enumeration(board):
    assert count_matchings(board) == sum(w for _, w in enumerate_matchings(board))


def test_mobius_board_is_eliminated_once(monkeypatch):
    # 8x8: the 48 inner cells are eliminated once, and each of the 2^8
    # passes takes a minor of the 8 x 8 Schur block of the 16 wrap ends
    blocks, dims = [], []
    monkeypatch.setattr(tilings, "schur_block",
                        lambda k, steps: blocks.append(len(k)) or schur_block(k, steps))
    monkeypatch.setattr(tilings, "det_int", lambda k: dims.append(len(k)) or det_int(k))
    assert count_matchings(board_graph("mobius", 8, 8)) == lu_wu_count(4, 4)
    assert blocks == [32]
    assert len(dims) <= 2**8
    assert max(dims) <= 8


def _weighted_wrap_board():
    """The 4 x 3 grid with unit weights 1-2 and three wraps of weights
    2, 3 and 1."""
    cells = [(r, c) for r in range(1, 5) for c in range(1, 4)]
    edges = {(u, v): 1 + (u[0] + v[1]) % 2 for u in cells for v in cells
             if u < v and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1}
    edges.update({((1, 1), (4, 3)): 2, ((2, 1), (3, 3)): 3, ((2, 3), (3, 1)): 1})
    return MatchGraph(cells, edges)


@pytest.mark.parametrize("board,wraps", [
    (board_graph("mobius", 4, 4), 4), (board_graph("mobius", 6, 4), 6),
    (board_graph("mobius", 3, 4), 3), (_weighted_wrap_board(), 3)])
def test_each_wrap_subset_is_one_pass(monkeypatch, board, wraps):
    # the benchmark counts one `_grid_dp` call per subset of the wraps,
    # so the walk over the wraps prunes no pass
    passes = []
    grid_dp = tilings._grid_dp
    monkeypatch.setattr(tilings, "_grid_dp",
                        lambda *args: passes.append(1) or grid_dp(*args))
    total = count_matchings(board)
    assert len(passes) == 2**wraps
    assert total == sum(w for _, w in enumerate_matchings(board))
    assert total


def test_disconnected_board_with_an_octagonal_face():
    # A ring around a missing centre has one face of length 8, where the
    # Kasteleyn signs fail; the separate domino makes E - V + 1 equal the
    # (zero) number of unit squares, so only the component term catches it.
    ring = [(r, c) for r in range(1, 4) for c in range(1, 4) if (r, c) != (2, 2)]
    cells = ring + [(1, 5), (1, 6)]
    edges = {(u, v): 1 for u in cells for v in cells
             if u < v and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1}
    board = MatchGraph(cells, edges)
    d, block, _, _ = tilings._kasteleyn(board.vertices, board.edges, set())
    assert (d, block) == (0, [])
    assert count_matchings(board) == 2


@pytest.mark.parametrize("kind,m,n", [("D", 6, 6), ("Dprime", 6, 6),
                                      ("Ddoubleprime", 6, 6), ("P", 8, 8)])
def test_temperley_overlays_count_by_determinant(kind, m, n):
    fam = EmbeddedFamily(kind, m, n)
    assert count_matchings(fam.h_graph()) == det_int(reduced_laplacian(fam.graph))


def test_wide_boards_number_cells_along_the_longer_side(monkeypatch):
    # row-major numbering would put vertical neighbours about cols/2 apart
    seen = []
    monkeypatch.setattr(tilings, "schur_block",
                        lambda k, steps: seen.append(k) or schur_block(k, steps))
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


def test_large_non_grid_is_refused_by_the_enumeration_cap():
    # a diagonal edge takes the 6 x 5 board off the lattice: 30 vertices
    b = board_graph("plain", 6, 5)
    diagonal = MatchGraph(b.vertices, {**b.edges, ((1, 1), (2, 2)): 1})
    assert len(diagonal.vertices) > tilings.ENUM_VERTEX_CAP
    with pytest.raises(SizeCapError, match="enumeration capped at 28 vertices"):
        count_matchings(diagonal)


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
    g = grid_sandpile(4, 4)
    with pytest.raises(SizeCapError):
        _walk_trees(_tree_choices(g))  # on the call, before the first tree
    for trees in (enumerate_spanning_trees, spanning_tree_weight_sum):
        with pytest.raises(SizeCapError):
            trees(g)
    family = EmbeddedFamily("D", 4, 4)
    assert family.graph.vertex_count > TREE_VERTEX_CAP
    with pytest.raises(SizeCapError):
        family.spanning_trees()


def test_a_seq_values():
    assert [a_seq(n) for n in range(1, 6)] == [1, 3, 29, 901, 89893]
    assert a_seq(6) == 28793575


@pytest.mark.parametrize("n", range(1, 13))
def test_a_seq_upto_matches_one_determinant_per_n(n):
    assert a_seq_upto(n) == [a_seq(k) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", [20, 30])
def test_a_seq_upto_matches_the_leading_minors(n):
    minors = leading_minors(reduced_laplacian(p_graph(n)))
    assert a_seq_upto(n) == [minors[k * (k + 1) // 2 - 1] for k in range(1, n + 1)]


def test_a_seq_upto_gives_the_tiling_identity():
    for k, ak in enumerate(a_seq_upto(20), start=1):
        assert 2**k * ak**2 == checks.det_count(2 * k, 2 * k)


def test_a_seq_upto_makes_one_small_determinant_per_k(monkeypatch):
    want, shapes = [a_seq(k) for k in range(1, 10)], []

    def spy(m):
        shapes.append((len(m), {len(row) for row in m}))
        return det_int(m)

    def dense(g):
        raise AssertionError("a_seq_upto built a dense Laplacian")

    monkeypatch.setattr(tilings, "det_int", spy)
    monkeypatch.setattr(tilings, "reduced_laplacian", dense)
    assert a_seq_upto(9) == want
    assert shapes == [(k, {k}) for k in range(1, 10)]


def test_a_seq_upto_refuses_a_wrong_sign(monkeypatch):
    monkeypatch.setattr(tilings, "det_int", lambda m: -det_int(m))
    with pytest.raises(ArithmeticError, match="a_1"):
        a_seq_upto(3)


def test_a_seq_upto_refuses_n_above_the_cap_before_any_work(monkeypatch):
    def unused(n):
        raise AssertionError("a_seq_upto built P_n before its cap")

    assert tilings.A_SEQ_MAX_N >= 60  # the CI smoke runs a-seq --n 60
    monkeypatch.setattr(tilings, "A_SEQ_MAX_N", 3)
    assert a_seq_upto(3) == [1, 3, 29]
    monkeypatch.setattr(tilings, "p_graph", unused)
    with pytest.raises(SizeCapError, match="n = 3"):
        a_seq_upto(4)


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
    # n = 2: vertex (2,2) lands at the corners and (1,1) in the center
    vals = {(1, 1): 10, (2, 1): 20, (2, 2): 30}
    g = p_graph(2)
    c = tuple(vals[lab] for lab in g.labels)
    emb = pn_embed(2, c)
    rows = [emb[r * 4:(r + 1) * 4] for r in range(4)]
    assert rows[0] == (30, 20, 20, 30)
    assert rows[1] == (20, 10, 10, 20)
    assert rows[2] == (20, 10, 10, 20)
    assert rows[3] == (30, 20, 20, 30)


@pytest.mark.parametrize("n", range(1, 7))
def test_pn_embed_folds_each_cell_into_the_staircase(n):
    # cell (R, C) folds into the first quadrant and under the diagonal
    g = p_graph(n)
    at = {lab: k for k, lab in enumerate(g.labels)}
    emb = pn_embed(n, tuple(range(g.vertex_count)))
    for k, (r, c) in enumerate(grid_sandpile(2 * n, 2 * n).labels):
        r, c = min(r, 2 * n + 1 - r), min(c, 2 * n + 1 - c)
        assert emb[k] == at[(n + 1 - min(r, c), n + 1 - max(r, c))]


@pytest.mark.parametrize("n", range(1, 9))
def test_staircase_is_the_dihedral_fold(n):
    assert checks._phi_check(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_pn_embed_is_the_dihedral_unfold(n):
    c = tuple(range(p_graph(n).vertex_count))
    assert pn_embed(n, c) == unfold(dihedral_action(2 * n), tuple(reversed(c)))


def test_pn_embed_rejects_wrong_length():
    with pytest.raises(ValueError):
        pn_embed(2, (1, 2))
