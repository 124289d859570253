"""Tridiagonal block matrices underlying the symmetric-recurrent counts.

A sandpile grid graph folded by its Klein four-group of symmetries has a
symmetrized reduced Laplacian that is block tridiagonal.  The block
triple (A, B, C) depends only on the parity class of the grid:

  even_even  --  2m x 2n grid:       A = A_n,  B = A_n - I,  C = I
  even_odd   --  2m x (2n-1) grid:   A = A'_n, B = B'_n,     C = I
  odd_odd    --  (2m-1) x (2n-1):    A = A'_n, B = A'_n,     C = 2I

where A_n is tridiagonal with diagonal (4, ..., 4, 3) and off-diagonal
entries -1, and A'_n has diagonal all 4 and off-diagonal -1 except for a
-2 in position (n, n-1).  B'_n is A'_n with every diagonal entry
replaced by 3.
"""

from .linalg import mat_identity, mat_scale, mat_sub

PARITIES = ("even_even", "even_odd", "odd_odd")


def mat_a(n):
    """Tridiagonal A_n: diagonal 4 except a final 3, off-diagonals -1."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 4
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    m[n - 1][n - 1] = 3
    return m


def mat_b(n):
    return mat_sub(mat_a(n), mat_identity(n))


def mat_a_prime(n):
    """A'_n: diagonal all 4, off-diagonals -1 except entry (n, n-1) = -2."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 4
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    if n > 1:
        m[n - 1][n - 2] = -2
    return m


def mat_b_prime(n):
    m = mat_a_prime(n)
    for i in range(n):
        m[i][i] = 3
    return m


def parity_blocks(parity, n):
    """Return the (A, B, C) triple for the given parity class."""
    if parity == "even_even":
        return mat_a(n), mat_b(n), mat_identity(n)
    if parity == "even_odd":
        return mat_a_prime(n), mat_b_prime(n), mat_identity(n)
    if parity == "odd_odd":
        a = mat_a_prime(n)
        return a, a, mat_scale(2, mat_identity(n))
    raise ValueError(f"unknown parity class {parity!r}")


def grid_parity(rows, cols):
    """Classify a rows x cols grid, returning (parity, m, n, transposed).

    The block machinery expects an even number of rows whenever exactly
    one dimension is even, so odd x even grids are treated as their
    transpose (the count is invariant).
    """
    if rows % 2 == 0 and cols % 2 == 0:
        return "even_even", rows // 2, cols // 2, False
    if rows % 2 == 0:
        return "even_odd", rows // 2, (cols + 1) // 2, False
    if cols % 2 == 0:
        return "even_odd", cols // 2, (rows + 1) // 2, True
    return "odd_odd", (rows + 1) // 2, (cols + 1) // 2, False
