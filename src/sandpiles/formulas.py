"""The banded reduction behind every Klein-fold determinant and element
order (`band_reduce`), and the closed-form symmetric-recurrent counts.

The closed forms are products over the cosine roots of Chebyshev
polynomials.  The product, Chebyshev and Lu-Wu forms are one exact
resultant, Res(P, R) of two integer polynomials built by one two-step
recurrence (see `closed_form_count`): the determinant of one Sylvester
matrix, computed with `det_int`.  None depends on the block
determinant, which is the independent closed form that checks them.
"""

from itertools import repeat
from operator import add, mul, sub

from .errors import SizeCapError
from .linalg import det_int

# Largest Sylvester matrix a closed form may eliminate: its cost grows as
# the cube of the dimension (m + n, the two degrees) in big-integer steps.
SYLVESTER_DIM_CAP = 128


def band_reduce(rows, width, columns):
    """Shoot through the k x k integer matrix S, given as each row's
    (column, entry) pairs, to one width x width matrix M.

    S must have k a multiple of `width`, S[r][r + width] = -1 for
    r < k - width, and every other entry within `width` of the diagonal
    (the last `width` rows may reach back to column k - 2 width), or
    ValueError is raised.  With x_0..x_{width-1} as the unknowns u, row
    r < k - width gives x_{r+width} as an integer row [coefficients of
    u | a constant per right-hand side c in `columns`], and the last
    `width` rows of S x = c read M u = t; only 2 width rows are kept.
    Returns (M, [t for each c]).  u -> x is onto the integer solutions,
    so the order of c against S (`engine._order`) is that of t against
    M, and det S = det M: the shift of the -1 couplings to the corner
    has sign (-1)^((k - width)(width + 1)) = 1.
    """
    k, n, two = len(rows), width + len(columns), 2 * width
    if width < 1 or k % width or any(len(col) != k for col in columns):
        raise ValueError("S is not whole blocks of `width` rows, or c is not k long")
    ring = [[int(u == v) for u in range(n)] for v in range(width)] + [None] * width
    last = []
    for r, row in enumerate(rows):
        low, high = max(min(r, k - width) - width, 0), min(r + width, k)
        coupled = r + width >= k
        acc = [0] * width + [-col[r] for col in columns]
        for j, x in row:
            if j == r + width and not coupled and x == -1:
                coupled = True
            elif not low <= j < high:
                raise ValueError(f"entry ({r}, {j}) is outside the band, or not -1")
            else:  # summed lazily, in one pass at the end
                y = ring[j % two]
                acc = map(sub, acc, y) if x == -1 else map(add, acc, map(mul, y, repeat(x)))
        if not coupled:
            raise ValueError(f"row {r} has no coupling -1")
        acc = list(acc)
        if r + width < k:
            ring[(r + width) % two] = acc  # x_{r+width}, in the place of x_{r-width}
        else:
            last.append(acc)
    return [row[:width] for row in last], [[-row[i] for row in last] for i in range(width, n)]


def block_tridiag_det(a, b, c, m):
    """Determinant of the block-tridiagonal matrix with diagonal blocks
    (A, ..., A, B), off-diagonal -I, and -C in position (m, m-1):
    `band_reduce` shoots through its rows to the n x n matrix
    M = B S_{m-1} - C S_{m-2} of the recurrence S_0 = I, S_1 = A,
    S_j = A S_{j-1} - S_{j-2}, and det M is the result (det B if m = 1).
    """
    n = len(a)
    if m < 1 or any(len(mat) != n or any(len(r) != n for r in mat) for mat in (a, b, c)):
        raise ValueError("m must be positive, and the blocks square and of equal size")
    a, b, c = ([[(j, x) for j, x in enumerate(row) if x] for row in mat] for mat in (a, b, c))
    rows = []
    for i in range(m):
        for p, diag in enumerate(b if i == m - 1 else a):
            below = [(j - n, -x) for j, x in c[p]] if i == m - 1 else [(p - n, -1)]
            rows.append([(i * n + j, x) for j, x in diag + below * (i > 0)]
                        + [(i * n + p + n, -1)] * (i < m - 1))
    return det_int(band_reduce(rows, n, [])[0])


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
