"""Exact integer linear algebra.

One fraction-free (Bareiss) elimination kernel serves determinants and
linear solves: every intermediate entry stays an integer (each is a
minor of the original matrix, which bounds growth).  A solve returns the
integer Cramer numerators y = det * M^-1 b, found by fraction-free
back-substitution and verified by an exact residual check.  With no
row swap, the pivots are the leading principal minors (`leading_minors`,
the tests' oracle for the staircase orders of `tilings.a_seq_upto`).

The kernel skips structural zeros: a row with a zero in the pivot column
is left alone for that step, and a row update spans only the columns up
to the last nonzero of the two rows involved.  On a matrix of bandwidth
b (the folded grid Laplacians, numbered row-major, have b = n for an
m x n orbit grid) elimination then costs O(N b^2) big-integer steps,
plus O(N^2) zero tests, instead of O(N^3); the result is the same exact
value on every input.

`schur_block` stops the same elimination after a given number of steps
and returns the eliminated block's determinant and the bordered minors
below it: one elimination then serves every minor of m that contains
the block (Sylvester's identity).  `det_int` keeps its own short read
of the full elimination: on the many small seam minors of a Mobius
count, going through `schur_block` cost `verify` about 2% of its time.

Every entry point copies its input once through `_int_square`, which
checks that the matrix is square and takes each entry through
`operator.index`, so a float or a Fraction raises TypeError instead of
being truncated to an integer.
"""

from operator import index


def _int_square(m):
    """A copy of the square matrix m, each entry taken through
    `operator.index`; raises ValueError if m is not square."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return [[index(x) for x in row] for row in m]


def _bareiss(a, rhs, steps=None):
    """Fraction-free forward elimination of the square matrix a, in
    place, with row swaps; rhs (one entry per row) is carried along.

    Only the first `steps` columns (all n by default) are eliminated,
    with pivots sought among the first `steps` rows.  Returns the number
    of row swaps, or None if that leading block is singular (then a is
    left partly eliminated).  Otherwise the block's rows are upper
    triangular, each as it stood when it was the pivot row, and the
    block's determinant is (-1)^swaps times a[steps-1][steps-1].  With
    no swap, a[k][k] is the leading principal minor of order k + 1.
    Every row below the block is left current: a[i][j] (i, j >= steps)
    is (-1)^swaps times the block's determinant bordered by row i and
    column j of the input.

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
    steps = n if steps is None else steps
    swaps = 0
    piv = [1]
    last_step = [0] * n
    end = [max((j + 1 for j, x in enumerate(row) if x), default=0) for row in a]
    for k in range(steps):
        if not a[k][k]:
            for i in range(k + 1, steps):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    rhs[k], rhs[i] = rhs[i], rhs[k]
                    last_step[k], last_step[i] = last_step[i], last_step[k]
                    end[k], end[i] = end[i], end[k]
                    swaps += 1
                    break
            else:
                return None
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
    up = piv[steps]
    for i in range(steps, n):
        s, e = last_step[i], end[i]
        if s != steps:
            down = piv[s]
            a[i][steps:e] = [x * up // down for x in a[i][steps:e]]
            rhs[i] = rhs[i] * up // down
    return swaps


def det_int(m):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = _int_square(m)
    n = len(a)
    if n == 0:
        return 1
    swaps = _bareiss(a, [0] * n)
    return 0 if swaps is None else (-1) ** swaps * a[n - 1][n - 1]


def schur_block(m, steps):
    """(d, B) for the square integer matrix m split after `steps` rows
    and columns: d is the determinant of the leading block, and B[i][j]
    is that block's determinant bordered by row steps + i and column
    steps + j of m, so B is d times the Schur complement of the block.

    By Sylvester's identity every q x q minor of B is d^(q-1) times the
    minor of m on the block's rows and columns plus the minor's (Bareiss
    1968).  If the block is singular, the split moves to steps = 0 and
    the result is (1, m); a singular block with steps = n gives (0, []).
    """
    a = _int_square(m)
    n = len(a)
    if not 0 <= steps <= n:
        raise ValueError("steps out of range")
    swaps = _bareiss(a, [0] * n, steps)
    if swaps is None:
        return (0, []) if steps == n else (1, _int_square(m))
    sign = (-1) ** swaps
    d = sign * a[steps - 1][steps - 1] if steps else 1
    return d, [[sign * x for x in row[steps:]] for row in a[steps:]]


def leading_minors(m):
    """The leading principal minors of a square integer matrix, orders 1
    to n, read off the diagonal of one elimination.

    Raises ValueError if a leading minor is zero: the elimination would
    then swap rows, and its diagonal would no longer hold the minors.
    On L(P_n) it gives every staircase order a_k, the oracle that
    `tilings.a_seq_upto`'s row shooting is tested against.
    """
    a = _int_square(m)
    if _bareiss(a, [0] * len(a)) != 0:  # None (singular) or a swap
        raise ValueError("a leading principal minor is zero")
    return [row[k] for k, row in enumerate(a)]


def solve_int(m, b):
    """Integer Cramer solve: (det, y) with M y == det * b, det = det(M).

    y is the integer vector det * M^-1 b.  Raises ValueError if M is
    singular and ArithmeticError if the exact residual check fails.
    """
    a = _int_square(m)
    n = len(a)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    rhs = [index(bv) for bv in b]
    swaps = _bareiss(a, rhs)
    last = a[n - 1][n - 1] if n else 1
    if swaps is None or last == 0:
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
    sign = (-1) ** swaps
    det = sign * last
    y = [sign * v for v in y]
    for row, bv in zip(m, b):
        if sum(c * v for c, v in zip(row, y)) != det * bv:
            raise ArithmeticError("nonzero residual in exact solve")
    return det, y


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
