"""Exact integer linear algebra.

One fraction-free (Bareiss) elimination kernel serves determinants and
linear solves: every intermediate entry stays an integer (each is a
minor of the original matrix, which bounds growth).  A solve returns the
integer Cramer numerators y = det * M^-1 b, found by fraction-free
back-substitution and verified by an exact residual check.
"""


def _check_square(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def _bareiss(a, n):
    """Fraction-free forward elimination of the n x n left block of a,
    in place, with row swaps.  Columns right of the block are carried
    along.  Returns the sign of the row permutation, or 0 if the block
    is singular (then a is left partly eliminated); otherwise the
    determinant is that sign times a[n-1][n-1].
    """
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            row_i[k + 1:] = [(x * pivot - aik * y) // prev
                             for x, y in zip(row_i[k + 1:], row_k[k + 1:])]
            row_i[k] = 0
        prev = pivot
    return sign


def det_int(m):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = _check_square(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    return _bareiss(a, n) * a[n - 1][n - 1]


def solve_int(m, b):
    """Integer Cramer solve: (det, y) with M y == det * b, det = det(M).

    y is the integer vector det * M^-1 b.  Raises ValueError if M is
    singular and ArithmeticError if the exact residual check fails.
    """
    n = _check_square(m)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    a = [[int(x) for x in row] + [int(bv)] for row, bv in zip(m, b)]
    sign = _bareiss(a, n)
    last = a[n - 1][n - 1] if n else 1
    if sign == 0 or last == 0:
        raise ValueError("singular matrix")
    # a is upper triangular with a[n-1][n-1] = det of the permuted M, so
    # last * x is integral (Cramer) and each division below is exact.
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = last * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i], rem = divmod(acc, row[i])
        if rem:
            raise ArithmeticError("inexact division in back-substitution")
    det = sign * last
    y = [sign * v for v in y]
    for row, bv in zip(m, b):
        if sum(c * v for c, v in zip(row, y)) != det * bv:
            raise ArithmeticError("nonzero residual in exact solve")
    return det, y


# --- small dense matrix helpers used by the block/Chebyshev machinery ---


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zero(n):
    return [[0] * n for _ in range(n)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(k, a):
    return [[k * x for x in row] for row in a]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
