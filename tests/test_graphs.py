import pytest

from sandpiles import (
    MatchGraph,
    SandpileGraph,
    board_graph,
    d_family,
    grid_sandpile,
    p_graph,
    reduced_laplacian,
)
from sandpiles.blocks import (
    PARITIES,
    grid_parity,
    mat_a,
    mat_a_prime,
    mat_b,
    mat_b_prime,
    parity_blocks,
)


def test_grid_laplacian_2x2():
    g = grid_sandpile(2, 2)
    assert reduced_laplacian(g) == [
        [4, -1, -1, 0],
        [-1, 4, 0, -1],
        [-1, 0, 4, -1],
        [0, -1, -1, 4],
    ]
    assert g.sink_weight == [2, 2, 2, 2]


def test_grid_every_vertex_degree_four():
    g = grid_sandpile(3, 5)
    assert all(d == 4 for d in g.out_degree)


def test_grid_corner_sink_weights():
    g = grid_sandpile(1, 3)
    # endpoints of a path lose 3 grid neighbors, the middle loses 2
    assert g.sink_weight == [3, 2, 3]


def test_sandpile_graph_rejects_unreachable_sink():
    with pytest.raises(ValueError):
        SandpileGraph(["a", "b"], {("a", "b"): 1, ("b", "a"): 1}, {})


def test_sandpile_graph_rejects_asymmetric_undirected():
    with pytest.raises(ValueError):
        SandpileGraph(["a", "b"], {("a", "b"): 2, ("b", "a"): 1}, {"a": 1})


def test_blocks_small():
    assert mat_a(1) == [[3]]
    assert mat_b(1) == [[2]]
    assert mat_a(3) == [[4, -1, 0], [-1, 4, -1], [0, -1, 3]]
    assert mat_b(3) == [[3, -1, 0], [-1, 3, -1], [0, -1, 2]]
    assert mat_a_prime(1) == [[4]]
    assert mat_b_prime(1) == [[3]]
    assert mat_a_prime(2) == [[4, -1], [-2, 4]]
    assert mat_b_prime(2) == [[3, -1], [-2, 3]]


GRID_OF = {"even_even": lambda m, n: (2 * m, 2 * n),
           "even_odd": lambda m, n: (2 * m, 2 * n - 1),
           "odd_odd": lambda m, n: (2 * m - 1, 2 * n - 1)}


def test_folded_grid_is_block_tridiagonal():
    # the folded Laplacian, cut into n x n blocks, has A on the diagonal
    # and B last, -I beside it, -C at (m, m-1), and zeros elsewhere
    from sandpiles.checks import sym_laplacian

    for parity in PARITIES:
        for m in range(1, 5):
            for n in range(1, 4):
                a, b, c = parity_blocks(parity, n)
                neg_i = [[-(i == j) for j in range(n)] for i in range(n)]
                neg_c = [[-x for x in row] for row in c]
                zero = [[0] * n for _ in range(n)]
                sym = sym_laplacian(*GRID_OF[parity](m, n))
                assert len(sym) == m * n
                for bi in range(m):
                    for bj in range(m):
                        block = [row[bj * n:(bj + 1) * n]
                                 for row in sym[bi * n:(bi + 1) * n]]
                        if bi == bj:
                            expect = b if bi == m - 1 else a
                        elif (bi, bj) == (m - 1, m - 2):
                            expect = neg_c
                        elif abs(bi - bj) == 1:
                            expect = neg_i
                        else:
                            expect = zero
                        assert block == expect, (parity, m, n, bi, bj)


def test_grid_parity_classification():
    assert grid_parity(4, 6) == ("even_even", 2, 3, False)
    assert grid_parity(4, 5) == ("even_odd", 2, 3, False)
    assert grid_parity(5, 4) == ("even_odd", 2, 3, True)
    assert grid_parity(5, 3) == ("odd_odd", 3, 2, False)


@pytest.mark.parametrize("kind,shape", [
    ("D", lambda m, n: (2 * m, 2 * n)),
    ("Dprime", lambda m, n: (2 * m, 2 * n - 1)),
    ("Ddoubleprime", lambda m, n: (2 * m - 1, 2 * n - 1)),
])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_d_family_laplacian_is_symmetrized_grid(kind, shape, m, n):
    from sandpiles import klein_action, symmetrized_laplacian

    rows, cols = shape(m, n)
    g = grid_sandpile(rows, cols)
    expect = symmetrized_laplacian(g, klein_action(rows, cols))
    assert reduced_laplacian(d_family(kind, m, n)) == expect


def test_d_family_directed_weight_two_edges():
    g = d_family("Dprime", 2, 3)
    # middle-column fold: weight 2 back toward the sink side, weight 1 out
    assert g.weight((1, 3), (1, 2)) == 2
    assert g.weight((1, 2), (1, 3)) == 1
    g2 = d_family("Ddoubleprime", 2, 2)
    assert g2.weight((2, 1), (1, 1)) == 2
    assert g2.weight((1, 1), (2, 1)) == 1
    assert g2.weight((2, 2), (2, 1)) == 2


def test_p_graph_structure():
    g = p_graph(3)
    assert g.labels == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    assert g.sink_weight == [0, 0, 0, 1, 1, 1]
    assert reduced_laplacian(p_graph(2)) == [
        [1, -1, 0],
        [-1, 3, -1],
        [0, -1, 2],
    ]


def test_board_plain():
    b = board_graph("plain", 2, 3)
    assert len(b.vertices) == 6
    assert all(w == 1 for w in b.edges.values())
    assert len(b.edges) == 7


def test_board_mobius_wrap_edges():
    b = board_graph("mobius", 4, 4)
    assert b.edges[((1, 1), (4, 4))] == 1
    assert b.edges[((2, 1), (3, 4))] == 1
    # 1x2 board: the wrap edge doubles the existing grid edge
    tiny = board_graph("mobius", 1, 2)
    assert tiny.edges[((1, 1), (1, 2))] == 2
    # one column: h and rows - h + 1 name the same wrap pair, added once
    column = board_graph("mobius", 4, 1)
    assert column.edges[((1, 1), (4, 1))] == 1
    assert column.edges[((2, 1), (3, 1))] == 2


def test_board_mobius_degenerate():
    with pytest.raises(ValueError):
        board_graph("mobius", 1, 1)


def test_board_mobius_weighted():
    b = board_graph("mobius_weighted", 4, 4)
    assert b.edges[((4, 3), (4, 4))] == 2
    assert b.edges[((2, 3), (2, 4))] == 2
    assert b.edges[((3, 3), (3, 4))] == 1
    odd = board_graph("mobius_weighted", 3, 2)
    assert odd.edges[((1, 1), (1, 2))] == 3
    assert odd.edges[((3, 1), (3, 2))] == 2


def test_board_two_weighted():
    b = board_graph("two_weighted", 4, 4)
    assert b.edges[((4, 3), (4, 4))] == 2
    assert b.edges[((2, 3), (2, 4))] == 2
    assert b.edges[((3, 4), (4, 4))] == 2
    assert b.edges[((3, 2), (4, 2))] == 2
    assert b.edges[((3, 3), (4, 3))] == 1
    with pytest.raises(ValueError):
        board_graph("two_weighted", 3, 4)


def test_match_graph_merges_parallel_edges():
    g = MatchGraph([(1, 1), (1, 2)], {((1, 1), (1, 2)): 1, ((1, 2), (1, 1)): 2})
    assert g.edges == {((1, 1), (1, 2)): 3}
    with pytest.raises(ValueError):
        MatchGraph([(1, 1)], {((1, 1), (1, 1)): 1})
