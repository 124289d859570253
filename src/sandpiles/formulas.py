"""Block-tridiagonal determinants and the closed-form symmetric-recurrent
counts.

The closed forms are products over the cosine roots of Chebyshev
polynomials.  The product, Chebyshev and Lu-Wu forms are one exact
resultant, Res(P, R) of two integer polynomials built by one two-step
recurrence (see `closed_form_count`): the determinant of one Sylvester
matrix, computed with `det_int`.  None depends on the block
determinant, which is the independent closed form that checks them.
"""

from .errors import SizeCapError
from .linalg import det_int, mat_identity

# Largest Sylvester matrix a closed form may eliminate: its cost grows as
# the cube of the dimension (m + n, the two degrees) in big-integer steps.
SYLVESTER_DIM_CAP = 128


def _times(a, s, minus):
    """a s - minus, with the sparse a given as each row's nonzero
    (column, entry) pairs: a row of the product costs one pass over a
    row of s per nonzero, a big x small step per entry."""
    out = []
    for terms, row in zip(a, minus):
        (j, x), *rest = terms or [(0, 0)]  # a zero row gives -minus
        acc = [x * y - z for y, z in zip(s[j], row)]
        for j, x in rest:
            acc = [u + x * y for u, y in zip(acc, s[j])]
        out.append(acc)
    return out


def block_tridiag_det(a, b, c, m):
    """Determinant of the block-tridiagonal matrix with diagonal blocks
    (A, ..., A, B), off-diagonal -I, and -C in position (m, m-1).

    Uses the integer matrix recurrence S_0 = I, S_1 = A,
    S_j = A S_{j-1} - S_{j-2}, and returns det(B S_{m-1} - C S_{m-2}),
    one n x n determinant.  For m = 1 this is det(B).  A, B and C act
    through their nonzeros only, so on the tridiagonal grid blocks each
    level costs about 3 n^2 big x small steps.
    """
    n = len(a)
    if any(len(mat) != n or any(len(r) != n for r in mat) for mat in (a, b, c)):
        raise ValueError("blocks must be square matrices of equal size")
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return det_int(b)
    s_prev, s_cur = mat_identity(n), a  # S_0, S_1
    a, b, c = ([[(j, x) for j, x in enumerate(row) if x] for row in mat]
               for mat in (a, b, c))
    for _ in range(m - 2):
        s_prev, s_cur = s_cur, _times(a, s_cur, s_prev)
    return det_int(_times(b, s_cur, _times(c, s_prev, [[0] * n] * n)))


# --- the closed forms as resultants ---
#
# Every product below has the shape prod_h R(a_h), where a_h runs over
# the roots of a monic integer polynomial P in y.  That product is the
# resultant Res(P, R), an integer, computed exactly as the determinant
# of the Sylvester matrix.  With d >= 1, each polynomial is f_d of
# f_0 = a, f_1 = y + b, f_j = (y + s) f_{j-1} - f_{j-2} (the two-step
# form of the Chebyshev recurrence), seeded by (a, b, s):
#   P_xi,d   = U_2d(sqrt(y)/2)    (1, -1, -2): roots 4 xi_h^2,
#              xi_h = cos(h pi / (2d + 1)),        h = 1..d;
#   P_zeta,d = 2 T_2d(sqrt(y)/2)  (2, -2, -2): roots 4 zeta_h^2,
#              zeta_h = cos((2h - 1) pi / (4d)),   h = 1..d;
#   C_d = (-1)^d P_xi,d(-y)       (1, 1, 2):   roots -4 xi_h^2;
#   V_d = (-1)^d P_zeta,d(-y)     (2, 2, 2):   roots -4 zeta_h^2.

_XI, _ZETA, _C, _V = (1, -1, -2), (2, -2, -2), (1, 1, 2), (2, 2, 2)


def _two_step(seeds, d):
    """f_d of the seeded recurrence, as integer coefficients, lowest
    degree first."""
    a, b, s = seeds
    f0, f1 = [a], [b, 1]
    for _ in range(d):
        f2 = [0] + f1  # y f_1
        for i, c in enumerate(f1):
            f2[i] += s * c
        for i, c in enumerate(f0):
            f2[i] -= c
        f0, f1 = f1, f2
    return f0


def _resultant(p, q):
    """Res(p, q) = lead(p)^deg q * prod q(root of p): the determinant of
    the Sylvester matrix of two coefficient lists, lowest degree first."""
    a, b = p[::-1], q[::-1]
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
    zeta at d = n.

    form="chebyshev": prod over h of a Chebyshev factor at y = 4 left_h^2:
    (-1)^n U_2n(i xi_h) = C_n(y) on even_even, 2 T_n(1 + y/2) = V_n(y)
    otherwise.

    The two forms are one resultant, Res(P_left,m, C_n or V_n): C_n and
    V_n are prod_k (y + 4 right_k^2), so the Chebyshev factor is the
    inner product over k.  `form` is validated but selects nothing; it
    is kept because callers pass it.
    """
    if parity not in ("even_even", "even_odd", "odd_odd"):
        raise ValueError(f"unknown parity class {parity!r}")
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if form not in ("product", "chebyshev"):
        raise ValueError(f"unknown form {form!r}")
    left = _ZETA if parity == "odd_odd" else _XI
    right = _C if parity == "even_even" else _V
    return _resultant(_two_step(left, m), _two_step(right, n))


def lu_wu_count(m, n):
    """Tilings of the 2m x 2n twisted (Moebius) checkerboard: the double
    product over (h, k) of 4 xi_h^2 + 4 mu_k^2, with
    mu_k = sin((4k - 1) pi / (4n)), k = 1..n.

    sin((4k - 1) pi / (4n)) = cos((2n - 4k + 1) pi / (4n)), and as k runs
    over 1..n, |2n - 4k + 1| runs over the odd numbers 1, 3, ..., 2n - 1
    once each.  So the 4 mu_k^2 are the 4 zeta_k^2 (Lu-Wu 1999), and the
    count is the even_odd closed form.
    """
    return closed_form_count("even_odd", m, n)
