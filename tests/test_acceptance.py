"""End-to-end acceptance checks.

One test per acceptance criterion, so a verbose run shows one pass/fail
line for each.  Everything here goes through the public API only.
"""

import random
import time

from sandpiles import (
    GroupAction,
    SandpileGraph,
    a_seq,
    board_graph,
    config_order,
    count_matchings,
    d_family,
    diagonal_config,
    distance_config,
    enumerate_matchings,
    enumerate_recurrents,
    enumerate_symmetric_recurrents,
    fold,
    grid_sandpile,
    identity_config,
    is_recurrent,
    klein_action,
    p_graph,
    pn_embed,
    reduced_laplacian,
    spanning_tree_weight_sum,
    stabilize,
    stable_add,
    symmetrized_laplacian,
)
from sandpiles.blocks import parity_blocks
from sandpiles.cli import main as cli_main
from sandpiles.formulas import block_tridiag_det, closed_form_count, lu_wu_count
from sandpiles.linalg import det_int


def grid_count(rows, cols):
    g = grid_sandpile(rows, cols)
    return det_int(symmetrized_laplacian(g, klein_action(rows, cols)))


def test_criterion_1_four_by_four_determinants():
    g = grid_sandpile(4, 4)
    assert det_int(symmetrized_laplacian(g, klein_action(4, 4))) == 36
    assert det_int(reduced_laplacian(g)) == 557568000


def test_criterion_2_even_even_chain():
    for m in range(1, 6):
        for n in range(1, 6):
            det = grid_count(2 * m, 2 * n)
            a, b, c = parity_blocks("even_even", n)
            assert block_tridiag_det(a, b, c, m) == det
            assert closed_form_count("even_even", m, n, "product") == det
            assert closed_form_count("even_even", m, n, "chebyshev") == det
            assert count_matchings(board_graph("plain", 2 * m, 2 * n)) == det


def test_criterion_3_even_odd_chain():
    for m in range(1, 5):
        for n in range(1, 5):
            det = grid_count(2 * m, 2 * n - 1)
            a, b, c = parity_blocks("even_odd", n)
            assert block_tridiag_det(a, b, c, m) == det
            assert closed_form_count("even_odd", m, n, "product") == det
            assert closed_form_count("even_odd", m, n, "chebyshev") == det
            assert lu_wu_count(m, n) == det
            board = (board_graph("mobius_weighted", 2 * m - 1, 2) if n == 1
                     else board_graph("mobius_weighted", 2 * m, 2 * n))
            assert count_matchings(board) == det
            assert count_matchings(board_graph("mobius", 2 * m, 2 * n)) == det
    assert grid_count(4, 3) == 71
    assert grid_count(6, 1) == 41


def test_criterion_4_odd_odd_chain():
    for m in range(1, 5):
        for n in range(1, 5):
            det = grid_count(2 * m - 1, 2 * n - 1)
            a, b, c = parity_blocks("odd_odd", n)
            assert block_tridiag_det(a, b, c, m) == det
            assert closed_form_count("odd_odd", m, n, "product") == det
            assert closed_form_count("odd_odd", m, n, "chebyshev") == det
            assert count_matchings(board_graph("two_weighted", 2 * m, 2 * n)) == det
    assert grid_count(1, 1) == 4


def test_criterion_5_worked_example_end_to_end(triangle, triangle_swap):
    assert reduced_laplacian(triangle) == [[3, -1, -1], [-1, 3, -1], [-1, -1, 2]]
    assert set(enumerate_recurrents(triangle)) == {
        (0, 2, 1), (1, 2, 0), (1, 2, 1), (2, 0, 1),
        (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1),
    }
    assert identity_config(triangle) == (2, 2, 0)
    assert sorted(enumerate_symmetric_recurrents(triangle, triangle_swap)) == [
        (2, 2, 0), (2, 2, 1)]
    assert symmetrized_laplacian(triangle, triangle_swap) == [[2, -1], [-2, 2]]
    assert det_int(symmetrized_laplacian(triangle, triangle_swap)) == 2


def test_criterion_6_constant_config_order_table():
    expect = {
        2: [1, 7, 5, 9, 13, 47, 17],
        3: [8, 71, 679, 769, 3713, 8449],
        4: [3, 77, 281, 4271, 2245],
        5: [52, 17753, 726433, 33507],
        6: [29, 434657, 167089],
        7: [272, 46069729],
        8: [901],
    }
    for m, row in expect.items():
        for k, value in enumerate(row):
            n = m + k
            t0 = time.monotonic()
            g = grid_sandpile(m, n)
            assert config_order(g, (2,) * (m * n)) == value
            assert time.monotonic() - t0 < 5.0
    t0 = time.monotonic()
    assert config_order(grid_sandpile(12, 12), (2,) * 144) == 5758715
    assert time.monotonic() - t0 < 5.0
    assert config_order(grid_sandpile(2, 2), (1,) * 4) == 2
    assert config_order(grid_sandpile(2, 3), (1,) * 6) == 7


def test_criterion_7_staircase_suite():
    assert [a_seq(n) for n in range(1, 6)] == [1, 3, 29, 901, 89893]
    for n in range(1, 6):
        an = a_seq(n)
        assert an % 2 == 1
        assert count_matchings(board_graph("plain", 2 * n, 2 * n)) == 2**n * an**2
    for n in range(1, 7):
        an = a_seq(n)
        pg = p_graph(n)
        order_p = config_order(pg, (2,) * pg.vertex_count)
        order_g = config_order(grid_sandpile(2 * n, 2 * n), (2,) * (4 * n * n))
        assert an % order_p == 0
        assert order_p == order_g
        lap = reduced_laplacian(pg)
        s, t = distance_config(n), diagonal_config(n)
        image = tuple(sum(row[j] * s[j] for j in range(len(s))) for row in lap)
        assert image == t


def test_criterion_8_property_suites(triangle):
    # abelian property: 100 random configurations, random firing order
    rng = random.Random(20260825)
    g = grid_sandpile(2, 3)
    for _ in range(100):
        c = tuple(rng.randrange(0, 13) for _ in range(6))
        amts = list(c)
        fire = [0] * 6
        while True:
            unstable = [v for v in range(6) if amts[v] >= g.out_degree[v]]
            if not unstable:
                break
            v = rng.choice(unstable)
            amts[v] -= g.out_degree[v]
            fire[v] += 1
            for w, wt in g.out[v].items():
                amts[w] += wt
        assert stabilize(g, c) == (tuple(amts), tuple(fire))

    # equivariance: stabilization commutes with the symmetry action
    g33 = grid_sandpile(3, 3)
    act = klein_action(3, 3)
    for _ in range(20):
        c = tuple(rng.randrange(0, 9) for _ in range(9))
        stab = stabilize(g33, c)[0]
        for p in act.elements:
            assert stabilize(g33, act.apply(p, c))[0] == act.apply(p, stab)

    # matrix-tree: direct tree enumeration equals the determinant on
    # every family instance with at most 12 vertices
    instances = []
    for rows in range(1, 13):
        for cols in range(rows, 13):
            if rows * cols <= 12:
                instances.append(grid_sandpile(rows, cols))
    for n in range(1, 5):
        instances.append(p_graph(n))
    for kind in ("D", "Dprime", "Ddoubleprime"):
        for m in range(1, 5):
            for n in range(1, 5):
                if m * n <= 12:
                    instances.append(d_family(kind, m, n))
    instances.append(triangle)
    for g in instances:
        assert spanning_tree_weight_sum(g) == det_int(reduced_laplacian(g))

    # tree-to-matching bijection on the undirected folded family
    from sandpiles.temperley import EmbeddedFamily

    for m in range(1, 4):
        for n in range(1, 4):
            if m * n > 6:
                continue
            fam = EmbeddedFamily("D", m, n)
            images = set()
            for tree, w in fam.spanning_trees():
                edges, mw = fam.temperley_matching(tree)
                assert mw == w
                images.add(tuple(edges))
            direct = enumerate_matchings(fam.h_graph())
            assert len(images) == len(direct)

    # Kasteleyn tiling counts against brute-force enumeration on every board kind
    for kind in ("plain", "mobius", "mobius_weighted", "two_weighted"):
        for rows in range(1, 7):
            for cols in range(1, 7):
                if rows * cols > 28:
                    continue
                try:
                    board = board_graph(kind, rows, cols)
                except ValueError:
                    continue
                assert count_matchings(board) == sum(
                    w for _, w in enumerate_matchings(board))


def test_criterion_9_identity_image(tmp_path, capsys):
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for out in (out1, out2):
        assert cli_main(["identity", "--rows", "4", "--cols", "4",
                         "--out", str(out)]) == 0
        capsys.readouterr()
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"P2\n4 4\n3\n")

    g = grid_sandpile(4, 4)
    e = identity_config(g)
    assert is_recurrent(g, e)
    assert stable_add(g, e, e) == e
    fold(klein_action(4, 4), e)  # Klein-symmetric, must not raise
    rows = [line.split() for line in data.decode().splitlines()[3:]]
    flat = tuple(int(x) for row in rows for x in row)
    assert flat == e
