"""Block-tridiagonal determinants and the closed-form symmetric-recurrent
counts.

The closed forms are products over the cosine roots of Chebyshev
polynomials.  Each is evaluated exactly, as the resultant of two integer
polynomials whose roots are those squared cosines (see
`closed_form_count`), so every count is an integer computed with
`det_int` and none depends on the block determinant it cross-checks.
"""

from .errors import SizeCapError
from .linalg import det_int, mat_identity, mat_mul, mat_sub

# Largest Sylvester matrix a closed form may eliminate: its cost grows as
# the cube of the dimension (m + n, the two degrees) in big-integer steps.
SYLVESTER_DIM_CAP = 128


class Poly:
    """Integer-coefficient polynomial, lowest degree first.

    Just enough ring arithmetic to build the resultants' polynomials
    from their two-step Chebyshev recurrences.
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

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


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


# --- the closed forms as resultants ---
#
# Every product below has the shape prod_h R(a_h), where a_h runs over
# the roots of a monic integer polynomial P in y.  That product is the
# resultant Res(P, R), an integer, computed exactly as the determinant
# of the Sylvester matrix.  With d >= 1:
#   P_xi,d   = U_2d(sqrt(y)/2)    has the roots 4 xi_h^2,
#              xi_h = cos(h pi / (2d + 1)),        h = 1..d;
#   P_zeta,d = 2 T_2d(sqrt(y)/2)  has the roots 4 zeta_h^2,
#              zeta_h = cos((2h - 1) pi / (4d)),   h = 1..d.
# Both follow f_j = (y - 2) f_{j-1} - f_{j-2} in j = d (the two-step form
# of the Chebyshev recurrence at x^2 = y/4).

_Y = Poly.x()


def _two_step(f0, f1, step, j):
    """f_j of the recurrence f_j = step * f_{j-1} - f_{j-2}."""
    for _ in range(j):
        f0, f1 = f1, step * f1 - f0
    return f0


def _p_xi(d):
    return _two_step(Poly((1,)), _Y - 1, _Y - 2, d)


def _p_zeta(d):
    return _two_step(Poly((2,)), _Y - 2, _Y - 2, d)


def _negated(p):
    """(-1)^deg p * p(-y): the monic polynomial prod (y + root)."""
    return (-1) ** (len(p.coeffs) - 1) * p(-_Y)


def _resultant(p, q):
    """Res(p, q) = lead(p)^deg q * prod q(root of p): the determinant of
    the Sylvester matrix."""
    a, b = list(p.coeffs[::-1]), list(q.coeffs[::-1])
    m, n = len(a) - 1, len(b) - 1
    if m + n > SYLVESTER_DIM_CAP:
        raise SizeCapError(
            f"Sylvester matrix of dimension {m + n} exceeds the cap of "
            f"{SYLVESTER_DIM_CAP}")
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return det_int(rows)


def closed_form_count(parity, m, n, form="product"):
    """Closed-form symmetric-recurrent counts by parity class, exact.

    form="product": prod over (h, k) of 4 left_h^2 + 4 right_k^2, with
    left = zeta (odd_odd) or xi at d = m and right = xi (even_even) or
    zeta at d = n; that is Res(P_left,m, prod_k (y + 4 right_k^2)).

    form="chebyshev": prod over h of a Chebyshev factor at y = 4 base_h^2.
    even_even: base = xi and the factor is (-1)^n U_2n(i xi_h) = C_n(y),
    C_0 = 1, C_1 = y + 1, C_j = (y + 2) C_{j-1} - C_{j-2} (the two-step
    form of u_j = 2x u_{j-1} + u_{j-2}, where u_j = i^(-j) U_j(i x)).
    Otherwise base = xi (even_odd) or zeta (odd_odd) and the factor is
    2 T_n(1 + y/2) = V_n(y), V_0 = 2, V_1 = y + 2, the same step.
    """
    if parity not in ("even_even", "even_odd", "odd_odd"):
        raise ValueError(f"unknown parity class {parity!r}")
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if form == "product":
        left = _p_zeta(m) if parity == "odd_odd" else _p_xi(m)
        right = _p_xi(n) if parity == "even_even" else _p_zeta(n)
        return _resultant(left, _negated(right))
    if form == "chebyshev":
        if parity == "even_even":
            return _resultant(_p_xi(m), _two_step(Poly((1,)), _Y + 1, _Y + 2, n))
        base = _p_xi(m) if parity == "even_odd" else _p_zeta(m)
        return _resultant(base, _two_step(Poly((2,)), _Y + 2, _Y + 2, n))
    raise ValueError(f"unknown form {form!r}")


def lu_wu_count(m, n):
    """Tilings of the 2m x 2n twisted (Moebius) checkerboard: the double
    product over (h, k) of 4 xi_h^2 + 4 mu_k^2, with
    mu_k = sin((4k - 1) pi / (4n)), k = 1..n.

    The 4 mu_k^2 = 4 - 4 cos^2 run over 4 - 4 zeta_k^2 at d = n, so they
    are the roots of P_mu,n(y) = (-1)^n P_zeta,n(4 - y).
    """
    p_mu = (-1) ** n * _p_zeta(n)(4 - _Y)
    return _resultant(_p_xi(m), _negated(p_mu))
