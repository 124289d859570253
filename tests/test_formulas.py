import math
from fractions import Fraction

import pytest

from sandpiles import checks, formulas
from sandpiles.blocks import PARITIES, grid_parity, parity_blocks
from sandpiles.errors import SizeCapError
from sandpiles.formulas import (
    SYLVESTER_DIM_CAP,
    block_tridiag_det,
    closed_form_count,
    lu_wu_count,
)
from sandpiles.linalg import det_int


def test_resultant_polynomials_have_the_cosine_roots():
    # The closed forms are resultants against P_xi,d and P_zeta,d; each
    # must be monic of degree d with the squared cosines as its roots.
    # Expanding prod (y - root) in floats recovers the integer
    # coefficients to well within 1/2 for every d here.
    for d in range(1, 11):
        for poly, angle in (
            (formulas._p_xi(d), lambda h: h * math.pi / (2 * d + 1)),
            (formulas._p_zeta(d), lambda h: (2 * h - 1) * math.pi / (4 * d)),
        ):
            expanded = [1.0]
            for h in range(1, d + 1):
                root = 4 * math.cos(angle(h)) ** 2
                expanded = [a - root * b for a, b in
                            zip([0.0] + expanded, expanded + [0.0])]
            assert len(poly.coeffs) == d + 1 and poly.coeffs[-1] == 1
            assert list(poly.coeffs) == pytest.approx(expanded, abs=1e-6)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_det_matches_assembled_matrix(parity, m, n):
    # the folded grid Laplacian, built from the grid's edges and not from
    # the blocks
    rows, cols = {"even_even": (2 * m, 2 * n), "even_odd": (2 * m, 2 * n - 1),
                  "odd_odd": (2 * m - 1, 2 * n - 1)}[parity]
    assert (block_tridiag_det(*parity_blocks(parity, n), m)
            == det_int(checks.sym_laplacian(rows, cols)))


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
    expect = block_tridiag_det(*parity_blocks(parity, n), m)
    assert closed_form_count(parity, m, n, "product") == expect
    assert closed_form_count(parity, m, n, "chebyshev") == expect


@pytest.mark.parametrize("rows,cols", [
    (12, 12), (16, 16), (32, 32), (24, 23), (23, 24), (25, 25), (16, 15),
])
def test_closed_forms_match_determinant_on_large_grids(rows, cols):
    # far past 2^53, where a float product can no longer be rounded back
    parity, m, n, _ = grid_parity(rows, cols)
    expect = block_tridiag_det(*parity_blocks(parity, n), m)
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
    assert lu_wu_count(m, n) == block_tridiag_det(*parity_blocks("even_odd", n), m)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_characteristic_recurrence_is_shifted_block_det(parity, n):
    a, _, _ = parity_blocks(parity, n)
    for x in (0, 1, -2, 3, Fraction(1, 2)):
        shifted = [[a[i][j] - (x if i == j else 0) for j in range(n)]
                   for i in range(n)]
        expect = _fraction_det(shifted)
        assert _characteristic_recurrence(parity, n, x) == expect


def _characteristic_recurrence(parity, n, x):
    """det(A - x I) for the parity class's A block, by the recurrence
    chi_j = (4 - x) chi_{j-1} - chi_{j-2} with seeds chi_0 = 1,
    chi_1 = 3 - x for even_even and chi_0 = 2, chi_1 = 4 - x otherwise."""
    prev, cur = (1, 3 - x) if parity == "even_even" else (2, 4 - x)
    for _ in range(n):
        prev, cur = cur, (4 - x) * cur - prev
    return prev


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
