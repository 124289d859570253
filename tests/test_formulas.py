import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import formulas
from sandpiles.blocks import (
    PARITIES,
    assemble_block_tridiag,
    grid_parity,
    parity_blocks,
)
from sandpiles.errors import SizeCapError
from sandpiles.formulas import (
    SYLVESTER_DIM_CAP,
    Poly,
    block_tridiag_det,
    characteristic_recurrence,
    chebyshev_t,
    chebyshev_u,
    closed_form_count,
    lu_wu_count,
    parity_block_det,
)
from sandpiles.linalg import det_int


def test_chebyshev_t_small():
    x = Poly.x()
    assert chebyshev_t(0, x) == Poly((1,))
    assert chebyshev_t(1, x) == x
    assert chebyshev_t(2, x) == Poly((-1, 0, 2))
    assert chebyshev_t(3, x) == Poly((0, -3, 0, 4))
    assert chebyshev_t(4, 1) == 1
    assert chebyshev_t(5, -1) == -1


def test_chebyshev_u_small():
    x = Poly.x()
    assert chebyshev_u(-1, x) == Poly((0,))
    assert chebyshev_u(0, x) == Poly((1,))
    assert chebyshev_u(1, x) == Poly((0, 2))
    assert chebyshev_u(2, x) == Poly((-1, 0, 4))
    assert chebyshev_u(3, 1) == 4


@given(st.integers(0, 10), st.floats(-1, 1))
@settings(max_examples=100)
def test_chebyshev_t_cosine_identity(j, c):
    theta = math.acos(c)
    assert chebyshev_t(j, c) == pytest.approx(math.cos(j * theta), abs=1e-9)


@given(st.integers(0, 8), st.fractions(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_chebyshev_pell_identity(j, x):
    # T_j^2 - (x^2 - 1) U_{j-1}^2 = 1
    t = chebyshev_t(j, x)
    u = chebyshev_u(j - 1, x)
    assert t * t - (x * x - 1) * u * u == 1


def test_chebyshev_matrix_argument():
    m = [[2, 1], [1, 2]]
    expect = chebyshev_t(3, Poly.x())
    coeffs = expect.coeffs
    # evaluate the polynomial on the matrix by hand
    from sandpiles.linalg import mat_identity, mat_mul, mat_scale

    acc = mat_scale(0, m)
    power = mat_identity(2)
    for c in coeffs:
        term = mat_scale(c, power)
        acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, term)]
        power = mat_mul(power, m)
    assert chebyshev_t(3, m) == acc


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_det_matches_assembled_matrix(parity, m, n):
    a, b, c = parity_blocks(parity, n)
    assembled = assemble_block_tridiag(a, b, c, m)
    assert block_tridiag_det(a, b, c, m) == det_int(assembled)
    assert parity_block_det(parity, m, n) == det_int(assembled)


def test_block_det_rejects_bad_shapes():
    with pytest.raises(ValueError):
        block_tridiag_det([[1, 0]], [[1]], [[1]], 2)
    with pytest.raises(ValueError):
        block_tridiag_det([[1]], [[1]], [[1]], 0)


@pytest.mark.parametrize("parity,m,n,expect", [
    ("even_even", 1, 1, 2),
    ("even_even", 2, 2, 36),
    ("even_odd", 1, 1, 3),
    ("even_odd", 2, 2, 71),
    ("even_odd", 3, 1, 41),
    ("odd_odd", 1, 1, 4),
    ("odd_odd", 2, 2, 128),
    ("even_even", 8, 8, 2444888770250892795802079170816),
])
def test_closed_form_anchors(parity, m, n, expect):
    assert closed_form_count(parity, m, n, "product") == expect
    assert closed_form_count(parity, m, n, "chebyshev") == expect


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_forms_match_determinant(parity, m, n):
    expect = parity_block_det(parity, m, n)
    assert closed_form_count(parity, m, n, "product") == expect
    assert closed_form_count(parity, m, n, "chebyshev") == expect


@pytest.mark.parametrize("rows,cols", [
    (12, 12), (16, 16), (32, 32), (24, 23), (23, 24), (25, 25), (16, 15),
])
def test_closed_forms_match_determinant_on_large_grids(rows, cols):
    # far past 2^53, where a float product can no longer be rounded back
    parity, m, n, _ = grid_parity(rows, cols)
    expect = parity_block_det(parity, m, n)
    assert expect.bit_length() > 53
    assert closed_form_count(parity, m, n, "product") == expect
    assert closed_form_count(parity, m, n, "chebyshev") == expect
    if parity == "even_odd":
        assert lu_wu_count(m, n) == expect


def test_closed_forms_cap_the_sylvester_dimension(monkeypatch):
    dims = []
    monkeypatch.setattr(formulas, "det_int", lambda rows: dims.append(len(rows)))
    m = SYLVESTER_DIM_CAP // 2
    n = SYLVESTER_DIM_CAP - m
    for parity in PARITIES:
        for form in ("product", "chebyshev"):
            closed_form_count(parity, m, n, form)
            with pytest.raises(SizeCapError):
                closed_form_count(parity, m, n + 1, form)
    lu_wu_count(m, n)
    with pytest.raises(SizeCapError):
        lu_wu_count(m + 1, n)
    assert dims == [SYLVESTER_DIM_CAP] * 7


def test_lu_wu_anchors():
    assert lu_wu_count(1, 1) == 3
    assert lu_wu_count(2, 2) == 71
    assert lu_wu_count(3, 1) == 41


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lu_wu_equals_even_odd_count(m, n):
    assert lu_wu_count(m, n) == parity_block_det("even_odd", m, n)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_characteristic_recurrence_is_shifted_block_det(parity, n):
    a, _, _ = parity_blocks(parity, n)
    for x in (0, 1, -2, 3, Fraction(1, 2)):
        shifted = [[a[i][j] - (x if i == j else 0) for j in range(n)]
                   for i in range(n)]
        expect = _fraction_det(shifted)
        assert characteristic_recurrence(parity, n, x) == expect


def _fraction_det(mat):
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def test_invalid_arguments():
    with pytest.raises(ValueError):
        closed_form_count("diagonal", 1, 1)
    with pytest.raises(ValueError):
        closed_form_count("even_even", 0, 1)
    with pytest.raises(ValueError):
        closed_form_count("even_even", 1, 1, form="series")
