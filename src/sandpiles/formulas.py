"""Chebyshev polynomials, block-tridiagonal determinants, and the
closed-form symmetric-recurrent counts.

The Chebyshev forms of the counts involve polynomials evaluated at
purely imaginary arguments.  Those are rewritten as real recurrences
before evaluation (see `closed_form_count`), so no complex arithmetic
occurs anywhere; the floating results are rounded to integers under a
relative-residue guard, with the exact determinant remaining the
authority whenever they disagree.
"""

import math

from .blocks import parity_blocks
from .errors import PrecisionError
from .linalg import det_int, mat_identity, mat_mul, mat_scale, mat_sub


class Poly:
    """Integer-coefficient polynomial, lowest degree first.

    Just enough ring arithmetic for the Chebyshev recurrences, so the
    recurrences can produce coefficient vectors as well as values.
    """

    def __init__(self, coeffs=(0,)):
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def x(cls):
        return cls((0, 1))

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-x for x in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([other * x for x in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _is_matrix(x):
    return isinstance(x, list) and x and isinstance(x[0], list)


def chebyshev_t(j, x):
    """Chebyshev polynomial of the first kind, T_j, evaluated at x.

    x may be an integer, Fraction, float, Poly, or a square matrix
    (list of rows).
    """
    if j < 0:
        raise ValueError("T_j needs j >= 0")
    if _is_matrix(x):
        prev, cur = mat_identity(len(x)), [list(r) for r in x]
        two_x = mat_scale(2, x)
        for _ in range(j):
            prev, cur = cur, mat_sub(mat_mul(two_x, cur), prev)
        return prev
    one = Poly((1,)) if isinstance(x, Poly) else 1
    prev, cur = one, x
    for _ in range(j):
        prev, cur = cur, 2 * x * cur - prev
    return prev


def chebyshev_u(j, x):
    """Chebyshev polynomial of the second kind, U_j (U_-1 = 0)."""
    if j < -1:
        raise ValueError("U_j needs j >= -1")
    if _is_matrix(x):
        n = len(x)
        prev, cur = mat_scale(0, x), mat_identity(n)
        two_x = mat_scale(2, x)
        for _ in range(j + 1):
            prev, cur = cur, mat_sub(mat_mul(two_x, cur), prev)
        return prev
    one = Poly((1,)) if isinstance(x, Poly) else 1
    prev, cur = 0 * one, one
    for _ in range(j + 1):
        prev, cur = cur, 2 * x * cur - prev
    return prev


def block_tridiag_det(a, b, c, m):
    """Determinant of the block-tridiagonal matrix with diagonal blocks
    (A, ..., A, B), off-diagonal -I, and -C in position (m, m-1).

    Uses the integer matrix recurrence S_0 = I, S_1 = A,
    S_j = A S_{j-1} - S_{j-2}, and returns
    (-1)^n det(-B S_{m-1} + C S_{m-2}).  For m = 1 this is det(B).
    """
    n = len(a)
    if any(len(mat) != n or any(len(r) != n for r in mat) for mat in (a, b, c)):
        raise ValueError("blocks must be square matrices of equal size")
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return det_int(b)
    s_prev, s_cur = mat_identity(n), [list(r) for r in a]  # S_0, S_1
    for _ in range(m - 2):
        s_prev, s_cur = s_cur, mat_sub(mat_mul(a, s_cur), s_prev)
    t = mat_sub(mat_mul(c, s_prev), mat_mul(b, s_cur))
    return (-1) ** n * det_int(t)


def parity_block_det(parity, m, n):
    """Symmetric-recurrent count via the block determinant."""
    a, b, c = parity_blocks(parity, n)
    return block_tridiag_det(a, b, c, m)


# --- trigonometric parameters ---


def xi(h, d):
    return math.cos(h * math.pi / (2 * d + 1))


def zeta(h, d):
    return math.cos((2 * h - 1) * math.pi / (4 * d))


def mu(k, n):
    return math.sin((4 * k - 1) * math.pi / (4 * n))


def t_root(h, m):
    return 2 * math.cos((2 * h + 1) * math.pi / (2 * m + 1))


def s_root(h, m):
    return math.cos((2 * h - 1) * math.pi / (2 * m))


def _round_guard(raw):
    if not math.isfinite(raw):
        raise PrecisionError(f"float product overflowed to {raw!r}")
    nearest = round(raw)
    if abs(raw - nearest) > 1e-6 * max(1.0, abs(raw)):
        raise PrecisionError(f"rounding residue too large for {raw!r}")
    return int(nearest)


def _u_even_imag(n, x):
    """(-1)^n U_2n(i x) as a real value.

    With u_j = i^(-j) U_j(i x) the U recurrence becomes
    u_j = 2 x u_{j-1} + u_{j-2}, and (-1)^n U_2n(i x) = u_2n, which the
    two-step form below evaluates: C_0 = 1, C_1 = 4x^2 + 1,
    C_j = (4x^2 + 2) C_{j-1} - C_{j-2}.
    """
    if n == 0:
        return 1.0
    prev, cur = 1.0, 4 * x * x + 1
    for _ in range(n - 1):
        prev, cur = cur, (4 * x * x + 2) * cur - prev
    return cur


def closed_form_count(parity, m, n, form="product"):
    """Closed-form symmetric-recurrent counts by parity class.

    form="product": double product over shifted cosine squares.
    form="chebyshev": single product of Chebyshev evaluations, with the
    imaginary-argument forms replaced by their real avatars (half-angle
    identity T_2j(x) = T_j(2x^2 - 1)).
    """
    if parity not in ("even_even", "even_odd", "odd_odd"):
        raise ValueError(f"unknown parity class {parity!r}")
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if form == "product":
        left = zeta if parity == "odd_odd" else xi
        right = xi if parity == "even_even" else zeta
        raw = 1.0
        for h in range(1, m + 1):
            for k in range(1, n + 1):
                raw *= 4 * left(h, m) ** 2 + 4 * right(k, n) ** 2
        return _round_guard(raw)
    if form == "chebyshev":
        if parity == "even_even":
            raw = 1.0
            for h in range(1, m + 1):
                raw *= _u_even_imag(n, xi(h, m))
        else:
            base = xi if parity == "even_odd" else zeta
            raw = float(2**m)
            for h in range(1, m + 1):
                raw *= chebyshev_t(n, 1 + 2 * base(h, m) ** 2)
        return _round_guard(raw)
    raise ValueError(f"unknown form {form!r}")


def lu_wu_count(m, n):
    """Tilings of the 2m x 2n twisted (Moebius) checkerboard."""
    raw = 1.0
    for h in range(1, m + 1):
        for k in range(1, n + 1):
            raw *= 4 * xi(h, m) ** 2 + 4 * mu(k, n) ** 2
    return _round_guard(raw)


def characteristic_recurrence(parity, n, x):
    """chi_n(x) with chi_j = (4 - x) chi_{j-1} - chi_{j-2} and seeds
    chi_0 = 1, chi_1 = 3 - x for even_even; chi_0 = 2, chi_1 = 4 - x
    otherwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if parity == "even_even":
        prev, cur = 1, 3 - x
    elif parity in ("even_odd", "odd_odd"):
        prev, cur = 2, 4 - x
    else:
        raise ValueError(f"unknown parity class {parity!r}")
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, (4 - x) * cur - prev
    return cur
