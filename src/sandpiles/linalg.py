"""Exact integer linear algebra.

One fraction-free (Bareiss) elimination kernel serves determinants and
linear solves: every intermediate entry stays an integer (each is a
minor of the original matrix, which bounds growth).  A solve returns the
integer Cramer numerators y = det * M^-1 b, found by fraction-free
back-substitution and verified by an exact residual check.

The kernel skips structural zeros: a row with a zero in the pivot column
is left alone for that step, and a row update spans only the columns up
to the last nonzero of the two rows involved.  On a matrix of bandwidth
b (the folded grid Laplacians, numbered row-major, have b = n for an
m x n orbit grid) elimination then costs O(N b^2) big-integer steps,
plus O(N^2) zero tests, instead of O(N^3); the result is the same exact
value on every input.
"""


def _check_square(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def _bareiss(a, rhs):
    """Fraction-free forward elimination of the square matrix a, in
    place, with row swaps; rhs (one entry per row) is carried along.

    Returns the sign of the row permutation, or 0 if a is singular (then
    a is left partly eliminated).  Otherwise a is upper triangular, each
    row as it stood when it was the pivot row, and the determinant is
    that sign times a[n-1][n-1].

    p_0 = 1 and p_{k+1} is the pivot of step k.  A row whose entry in
    the pivot column is zero is skipped: its Bareiss update would only
    scale it by p_{k+1} / p_k, and those scales telescope.  So each row
    keeps the step s after which it was last updated, and an update
    divides by that row's own p_s:
        a_ij <- (a_ij p_{k+1} - a_ik a_kj) / p_s,
    exact because the result is a minor of the input.  A row is brought
    current (times p_k / p_s) when it becomes the pivot row.  Each row
    also keeps the end of its nonzero entries, and an update covers only
    the columns up to the later end of the two rows.
    """
    n = len(a)
    sign = 1
    piv = [1]
    last_step = [0] * n
    end = [max((j + 1 for j, x in enumerate(row) if x), default=0) for row in a]
    for k in range(n):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    rhs[k], rhs[i] = rhs[i], rhs[k]
                    last_step[k], last_step[i] = last_step[i], last_step[k]
                    end[k], end[i] = end[i], end[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k, ek = a[k], end[k]
        s = last_step[k]
        if s != k:
            up, down = piv[k], piv[s]
            row_k[k:ek] = [x * up // down for x in row_k[k:ek]]
            rhs[k] = rhs[k] * up // down
        pivot, bk, tail = row_k[k], rhs[k], row_k[k + 1:]
        piv.append(pivot)
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if not aik:
                continue
            down = piv[last_step[i]]
            e = end[i] if end[i] > ek else ek
            row_i[k + 1:e] = [(x * pivot - aik * y) // down
                              for x, y in zip(row_i[k + 1:e], tail)]
            row_i[k] = 0
            rhs[i] = (rhs[i] * pivot - aik * bk) // down
            last_step[i] = k + 1
            end[i] = e
    return sign


def det_int(m):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = _check_square(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    return _bareiss(a, [0] * n) * a[n - 1][n - 1]


def solve_int(m, b):
    """Integer Cramer solve: (det, y) with M y == det * b, det = det(M).

    y is the integer vector det * M^-1 b.  Raises ValueError if M is
    singular and ArithmeticError if the exact residual check fails.
    """
    n = _check_square(m)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    a = [[int(x) for x in row] for row in m]
    rhs = [int(bv) for bv in b]
    sign = _bareiss(a, rhs)
    last = a[n - 1][n - 1] if n else 1
    if sign == 0 or last == 0:
        raise ValueError("singular matrix")
    # a is upper triangular with a[n-1][n-1] = det of the permuted M, so
    # last * x is integral (Cramer) and each division below is exact.
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = last * rhs[i] - sum(row[j] * y[j] for j in range(i + 1, n))
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


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(k, a):
    return [[k * x for x in row] for row in a]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
