"""Exact arithmetic the benchmark uses to validate its references.

This code is written apart from the `sandpiles` package on purpose: a
reference value is accepted only when it agrees with a second exact
derivation that does not run the code under measurement.
"""

import hashlib
import json


def det(mat):
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _sub(x, y):
    return [[u - v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def _eye(n, k=1):
    return [[k if i == j else 0 for j in range(n)] for i in range(n)]


def _tridiag(n, diag):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = diag
        if i + 1 < n:
            mat[i][i + 1] = mat[i + 1][i] = -1
    return mat


def block_det(a, b, c, m):
    """det of the m-block tridiagonal matrix with diagonal (A, ..., A, B),
    off-diagonal blocks -I, and -C in block (m, m-1).

    With S_0 = I, S_1 = A and S_j = A S_{j-1} - S_{j-2}, the determinant
    is det(B S_{m-1} - C S_{m-2}) (and det(B) for m = 1).
    """
    if m == 1:
        return det(b)
    s_prev, s_cur = _eye(len(a)), a
    for _ in range(m - 2):
        s_prev, s_cur = s_cur, _sub(_matmul(a, s_cur), s_prev)
    return det(_sub(_matmul(b, s_cur), _matmul(c, s_prev)))


def parity_class(rows, cols):
    """(parity, m, n) of a rows x cols grid, transposing odd x even."""
    if rows % 2 and not cols % 2:
        rows, cols = cols, rows
    if not rows % 2 and not cols % 2:
        return "even_even", rows // 2, cols // 2
    if not rows % 2:
        return "even_odd", rows // 2, (cols + 1) // 2
    return "odd_odd", (rows + 1) // 2, (cols + 1) // 2


def symmetric_count(parity, m, n):
    """Klein-symmetric recurrents of the grid in class (parity, m, n).

    The folded Laplacian is block tridiagonal.  With T_n = tridiag(-1, 4, -1)
    and T'_n equal to T_n except a -2 in entry (n, n-1):
    even_even uses A = T_n with a final diagonal 3, B = A - I, C = I;
    even_odd uses A = T'_n, B = T'_n with diagonal 3, C = I;
    odd_odd uses A = B = T'_n, C = 2I.
    """
    if parity == "even_even":
        a = _tridiag(n, 4)
        a[n - 1][n - 1] = 3
        return block_det(a, _sub(a, _eye(n)), _eye(n), m)
    a = _tridiag(n, 4)
    if n > 1:
        a[n - 1][n - 2] = -2
    if parity == "even_odd":
        b = [list(row) for row in a]
        for i in range(n):
            b[i][i] = 3
        return block_det(a, b, _eye(n), m)
    return block_det(a, a, _eye(n, 2), m)


def grid_group_order(rows, cols):
    """Order of the sandpile group of the rows x cols grid (its
    spanning-tree count): the det of the block-tridiagonal Laplacian."""
    a = _tridiag(cols, 4)
    return block_det(a, a, _eye(cols), rows)


def stabilize_grid(grid):
    """Stabilize a sandpile on a rectangular grid with a sink on the
    border (threshold 4); returns the stable grid."""
    rows, cols = len(grid), len(grid[0])
    g = [list(row) for row in grid]
    todo = [(r, c) for r in range(rows) for c in range(cols) if g[r][c] >= 4]
    while todo:
        r, c = todo.pop()
        k = g[r][c] // 4
        if not k:
            continue
        g[r][c] -= 4 * k
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < rows and 0 <= cc < cols:
                g[rr][cc] += k
                if g[rr][cc] >= 4:
                    todo.append((rr, cc))
    return g


def is_grid_identity(grid):
    """True iff grid is the identity of the grid's sandpile group: it is
    stable, recurrent (burning test) and idempotent (e + e stabilizes
    to e).  A recurrent idempotent is the group identity."""
    rows, cols = len(grid), len(grid[0])
    if any(not 0 <= x < 4 for row in grid for x in row):
        return False
    burn = [[(r == 0) + (r == rows - 1) + (c == 0) + (c == cols - 1)
             for c in range(cols)]
            for r in range(rows)]
    burnt = stabilize_grid([[x + y for x, y in zip(rx, ry)]
                            for rx, ry in zip(grid, burn)])
    doubled = stabilize_grid([[2 * x for x in row] for row in grid])
    return burnt == grid and doubled == grid


def grid_digest(grid):
    """Canonical hash of an integer grid."""
    return hashlib.sha256(json.dumps(grid).encode()).hexdigest()
