from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (
    grid_sandpile,
    klein_action,
    p_graph,
    reduced_laplacian,
    symmetrized_laplacian,
)
from sandpiles.blocks import grid_parity, parity_blocks
from sandpiles.formulas import block_tridiag_det
from sandpiles.linalg import (
    det_int,
    leading_minors,
    schur_block,
    solve_int,
)


def fraction_det(mat):
    """Plain Gaussian elimination over Fraction, as the oracle."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


# Mostly zero entries, so elimination skips rows, scales them lazily and
# swaps in rows that were last updated several steps back.
sparse_matrices = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(square_matrices)
@settings(max_examples=200)
def test_det_matches_fraction_elimination(mat):
    assert det_int(mat) == fraction_det(mat)


@given(sparse_matrices)
@settings(max_examples=200)
def test_det_sparse_matches_fraction_elimination(mat):
    assert det_int(mat) == fraction_det(mat)


def test_det_known_values():
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[3, -1, -1], [-1, 3, -1], [-1, -1, 2]]) == 8
    assert det_int([[2, -1], [-2, 2]]) == 2


def test_zero_pivot_swaps_in_a_row_not_brought_current():
    # Step 0 updates rows 1 and 2 and skips row 3 (zero in column 0), so
    # the zero pivot at step 1 is swapped with row 3, which must first be
    # scaled by the step-0 pivot 3.
    mat = [[3, 0, -1, 0],
           [2, 0, 0, -1],
           [1, 0, 0, 0],
           [0, -1, 2, 0]]
    assert det_int(mat) == fraction_det(mat) == -1
    assert solve_int(mat, [1, 2, 3, 4]) == (-1, [-3, -12, -8, -4])


@pytest.mark.parametrize("rows,cols", [(40, 40), (31, 33)])
def test_folded_det_matches_block_recurrence(rows, cols):
    parity, m, n, _ = grid_parity(rows, cols)
    lap = symmetrized_laplacian(grid_sandpile(rows, cols),
                                klein_action(rows, cols))
    assert det_int(lap) == block_tridiag_det(*parity_blocks(parity, n), m)


def leading_blocks(mat):
    return [[row[:k] for row in mat[:k]] for k in range(1, len(mat) + 1)]


def test_leading_minors_are_the_leading_determinants():
    mat = [[2, -1, 3, 0],
           [4, 1, 0, 2],
           [-2, 5, 7, 1],
           [0, 3, -1, 6]]
    lap = reduced_laplacian(p_graph(6))
    for m in (mat, lap):
        assert leading_minors(m) == [det_int(b) for b in leading_blocks(m)]
    assert leading_minors([]) == []


@given(st.one_of(square_matrices, sparse_matrices))
@settings(max_examples=200)
def test_leading_minors_match_or_refuse(mat):
    want = [fraction_det(b) for b in leading_blocks(mat)]
    if 0 in want:
        with pytest.raises(ValueError):
            leading_minors(mat)
    else:
        assert leading_minors(mat) == want


def test_leading_minors_refuse_a_swap():
    with pytest.raises(ValueError):
        leading_minors([[0, 1], [1, 0]])  # det -1, but the first minor is 0
    with pytest.raises(ValueError):
        leading_minors([[1, 2], [2, 4]])  # singular


def test_det_refuses_inexact_entries():
    for mat in ([[1.5]], [[Fraction(7, 2), 0], [0, 1]], [[2.0]]):
        with pytest.raises(TypeError):
            det_int(mat)


def test_det_and_solve_refuse_mismatched_shapes():
    with pytest.raises(ValueError, match="not square"):
        det_int([[1, 2]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_int([[2, 0], [0, 1]], [1, 1, 1])


def test_leading_minors_refuse_inexact_entries():
    with pytest.raises(TypeError):
        leading_minors([[2.5, 0], [0, 1.9]])


def test_solve_int_refuses_inexact_entries():
    with pytest.raises(TypeError):
        solve_int([[2.5, 0], [0, 1]], [1, 1])
    with pytest.raises(TypeError):
        solve_int([[2, 0], [0, 1]], [Fraction(1, 2), 1])


def test_det_singular():
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_transpose_invariant():
    m = [[4, -1, 0], [-1, 3, -2], [0, -1, 2]]
    assert det_int(m) == det_int([list(col) for col in zip(*m)])


# Half the entries zero, so leading blocks are often singular or need a
# row swap.
schur_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-9, 9)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


def check_sylvester(mat, steps):
    """schur_block(mat, steps) against Sylvester's identity, minor by minor."""
    n = len(mat)
    d, block = schur_block(mat, steps)
    split = n - len(block)
    if split != steps:  # a singular leading block
        assert det_int([row[:steps] for row in mat[:steps]]) == 0
        assert (split, d, block) == (0, 1, mat)
    assert d == det_int([row[:split] for row in mat[:split]])
    for q in range(1, n - split + 1):
        for rows in combinations(range(n - split), q):
            for cols in combinations(range(n - split), q):
                keep_r = [*range(split), *(split + i for i in rows)]
                keep_c = [*range(split), *(split + j for j in cols)]
                minor = det_int([[mat[i][j] for j in keep_c] for i in keep_r])
                assert det_int([[block[i][j] for j in cols] for i in rows]) \
                    == d ** (q - 1) * minor


@given(schur_matrices)
@settings(max_examples=100, deadline=None)
def test_schur_block_minors_follow_sylvesters_identity(mat):
    for steps in range(len(mat) + 1):
        check_sylvester(mat, steps)


def test_schur_block_swaps_inside_the_block_and_falls_back_when_singular():
    swap = [[0, 2, 1], [3, 1, 0], [1, 4, 5]]  # zero leading pivot
    # bordered by the last row and column, the block is the whole matrix
    assert schur_block(swap, 2) == (-6, [[det_int(swap)]]) == (-6, [[-19]])
    singular = [[1, 2, 0], [2, 4, 1], [0, 1, 3]]
    assert schur_block(singular, 2) == (1, singular)
    assert schur_block([[1, 2], [2, 4]], 2) == (0, [])
    for mat, steps in ((swap, 2), (singular, 2), (singular, 3)):
        check_sylvester(mat, steps)
    with pytest.raises(ValueError):
        schur_block(swap, 4)


def fraction_solve(mat, rhs):
    """Gauss-Jordan elimination over Fraction, as the solve oracle."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(mat, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n] for row in a]


@given(square_matrices, st.data())
@settings(max_examples=100)
def test_solve_int_residual(mat, data):
    n = len(mat)
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    if det_int(mat) == 0:
        with pytest.raises(ValueError):
            solve_int(mat, rhs)
        return
    det, y = solve_int(mat, rhs)
    assert det == det_int(mat)
    assert all(isinstance(v, int) for v in y)
    for i in range(n):
        assert sum(mat[i][j] * y[j] for j in range(n)) == det * rhs[i]


@given(sparse_matrices, st.data())
@settings(max_examples=200)
def test_solve_int_sparse_matches_fraction_solve(mat, data):
    n = len(mat)
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    det = fraction_det(mat)
    if det == 0:
        with pytest.raises(ValueError):
            solve_int(mat, rhs)
        return
    assert solve_int(mat, rhs) == (det, [det * x for x in fraction_solve(mat, rhs)])


def test_solve_int_singular():
    with pytest.raises(ValueError, match="singular"):
        solve_int([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ValueError, match="singular"):
        solve_int([[0]], [1])


def test_solve_int_known_value():
    assert solve_int([[2, 0], [0, 3]], [1, 1]) == (6, [3, 2])
    assert solve_int([], []) == (1, [])


@given(square_matrices, st.data())
@settings(max_examples=100)
def test_order_matches_denominator_lcm(mat, data):
    n = len(mat)
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    if det_int(mat) == 0:
        return
    det, y = solve_int(mat, rhs)
    expected = lcm(*(x.denominator for x in fraction_solve(mat, rhs)))
    assert abs(det) // gcd(det, *y) == expected

