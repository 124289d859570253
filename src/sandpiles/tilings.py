"""Perfect-matching counts and the staircase-graph machinery.

A board drawn on the square lattice, with unit edges only, is counted as
a Kasteleyn determinant |det K| (Kasteleyn 1961; Temperley-Fisher 1961):
K is the black x white biadjacency matrix, +w on horizontal edges and
(-1)^col w on vertical ones, which is valid when every bounded face is a
unit square.  Twisted (wrap-edge) boards sum that count over all seam
subsets.  K is eliminated once per board, on the cells that no subset
removes; each seam pass is then a minor of the small Schur block left on
the wrap ends (Sylvester's identity, `linalg.schur_block`), and a board
with no wraps is the one pass with an empty block.  The passes are the
leaves of a walk over the wraps: each wrap either stays or is taken,
and a pass that takes it is its parent pass with the wrap's two end
cells dropped from the block's rows and columns and its weight
multiplied in, so no pass rebuilds its cells from the subset.  Every
lattice board, twisted or not, is counted only when its estimated work
is within SEAM_WORK_CAP.  Any other small graph falls back to
enumeration, one recursion on the set of uncovered cells that matches
the least of them each way it can; it is also the oracle for the
determinant in tests.

The staircase graph P_n is the 2n x 2n grid folded by its dihedral
symmetries.  `a_seq_upto` shoots down P_n's rows, one free unknown per
diagonal cell, and reads each a_k as the determinant of k vectors over
t_1..t_k: n small determinants, with no dense Laplacian.  `a_seq` is
one determinant of L(P_n) per n, and the oracle.
"""

from .errors import SizeCapError
from .graphs import reduced_laplacian, p_graph
from .linalg import det_int, schur_block
from .symmetry import grid_fold

ENUM_VERTEX_CAP = 28
# The estimate charges a board 2^wraps full determinants, one on a plain
# board: each about cells x side^2 bignum updates (side the shorter side,
# K's band), plus (cells/2)^2 to build the dense K and scan it for zeros,
# plus a fixed SEAM_PASS_COST for the cell list; one unit is about 30 ns
# (Python 3.11, one 2-core VM).  The Mobius 12x12 board is 1.1e8, 16x4 is
# 2.0e8 and 18x2 3.8e8; the plain 200x200 board is 2.0e9.  A twisted
# board costs one elimination plus 2^wraps minors of at most
# rows x rows, so the estimate is an upper bound there (Mobius 12x12
# takes 0.08-0.14 s); it is kept so that the refusals stay where they
# are.
SEAM_PASS_COST = 1000
SEAM_WORK_CAP = 15 * 10**7
# `a_seq_upto(n)` grows about n^7.5: 0.9 s at n = 60, 2.2 s at 70 and
# 7.0 s at 80 (Python 3.11, one 2-core VM), so n = 100 would take about
# 40 s and n = 200 hours.
A_SEQ_MAX_N = 80


# --- matchings ---


def _grid_structure(board):
    """Split the edges into unit edges and twisted wraps.

    Returns (unit_edges, wraps) or None, where wraps is a list of
    ((u, v), weight) seam edges {(h, 1), (rows - h + 1, cols)}; a board
    with wraps must be the full rows x cols grid.
    """
    verts = board.vertices
    rows = max((r for r, _ in verts), default=0)
    cols = max((c for _, c in verts), default=0)
    unit = {}
    wraps = []
    for (u, v), w in board.edges.items():
        (r1, c1), (r2, c2) = u, v
        if abs(r1 - r2) + abs(c1 - c2) == 1:
            unit[(u, v)] = w
        elif {c1, c2} == {1, cols} and r1 + r2 == rows + 1:
            wraps.append(((u, v), w))
        else:
            return None
    full = {(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)}
    if wraps and set(verts) != full:
        return None
    return unit, wraps


def _faces_are_unit_squares(cells, unit):
    """Euler's formula: the plane lattice graph has E - V + components
    bounded faces, and every complete unit square is one of them."""
    root = {v: v for v in cells}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]  # path halving
        return v

    components = len(cells)
    for u, v in unit:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            components -= 1
    squares = sum(all(((r + d, c), (r + d, c + 1)) in unit
                      and ((r, c + d), (r + 1, c + d)) in unit for d in (0, 1))
                  for r, c in cells)
    return len(unit) - len(cells) + components == squares


def _kasteleyn(cells, unit, ends):
    """Eliminate the Kasteleyn matrix K of the lattice graph on cells
    (unit edges only; every bounded face must be a unit square) once.

    K's rows are the black cells and its columns the white ones, with the
    cells not in `ends` first, numbered along the longer side (column-major
    when they span more columns than rows) so that their block has a band
    of about the shorter side, and the cells in `ends` last.  Returns
    (d, block, black, white) from `schur_block` on that split: the count
    of the board with some ends removed is a minor of block over a power
    of d, and block's rows and columns are the cells `black` and `white`.  A board whose colours
    do not balance gives d = 0 and nothing else.  With wraps it is a full
    grid of odd size, whose wraps join cells of one colour, so no pass
    balances it either."""
    kept = [v for v in cells if v not in ends]
    if len({c for _, c in kept}) > len({r for r, _ in kept}):
        kept.sort(key=lambda v: (v[1], v[0]))
    order = kept + [v for v in cells if v in ends]
    black = [v for v in order if sum(v) % 2 == 0]
    white = [v for v in order if sum(v) % 2]
    if len(black) != len(white):
        return 0, [], [], []
    row = {v: i for i, v in enumerate(black)}
    col = {v: i for i, v in enumerate(white)}
    k = [[0] * len(white) for _ in black]
    for (u, v), w in unit.items():
        if v in row:
            u, v = v, u
        k[row[u]][col[v]] = -w if u[0] != v[0] and u[1] % 2 else w
    # kept cells past the smaller colour count stay in block, in every pass
    steps = min(sum(v not in ends for v in black),
                sum(v not in ends for v in white))
    d, block = schur_block(k, steps)
    tail = len(black) - len(block)
    return d, block, black[tail:], white[tail:]


def _seam_pass(d, block, rows, cols):
    """|det K| on the cells that one seam pass keeps: the minor of the
    Schur block on its surviving rows and columns, over d^(q-1)."""
    q = len(rows)
    if q != len(cols):
        return 0
    if not q:
        return abs(d)
    minor = det_int([[block[i][j] for j in cols] for i in rows])
    count, rem = divmod(abs(minor), abs(d) ** (q - 1))
    if rem:
        raise ArithmeticError("inexact division of a Schur minor")
    return count


# perfbench/test_perfbench.py patches this name to count seam passes.
_grid_dp = _seam_pass


def count_matchings(board):
    """Weighted count of perfect matchings of a board."""
    split = _grid_structure(board)
    if split is not None and _faces_are_unit_squares(board.vertices, split[0]):
        unit, wraps = split
        size = len(board.vertices)
        side = min(len({r for r, _ in board.vertices}),
                   len({c for _, c in board.vertices}))
        work = 2 ** len(wraps) * (size * side**2 + (size // 2) ** 2
                                  + SEAM_PASS_COST)
        if work > SEAM_WORK_CAP:
            raise SizeCapError(f"{size} cells, {len(wraps)} wrap edges: "
                               f"work {work} exceeds {SEAM_WORK_CAP}")
        # Each pass removes cells of the first and last columns, which lie
        # on the outer face, so the remaining faces stay unit squares.
        ends = {x for edge, _ in wraps for x in edge}
        d, block, black, white = _kasteleyn(board.vertices, unit, ends)

        def walk(k, weight, rows, cols):
            # the passes that keep or take each of wraps[:k]
            if not k:
                return weight * _grid_dp(d, block, rows, cols)
            edge, w = wraps[k - 1]
            return walk(k - 1, weight, rows, cols) + walk(
                k - 1, weight * w, [i for i in rows if black[i] not in edge],
                [j for j in cols if white[j] not in edge])

        return walk(len(wraps), 1, range(len(black)), range(len(white)))
    return sum(w for _, w in enumerate_matchings(board))


def enumerate_matchings(board):
    """All perfect matchings as (edge list, weight) pairs, by one recursion
    on the uncovered cells: the least of them is matched with each
    uncovered neighbour in `neighbors()` order.  A board with no perfect
    matching, such as one of odd size, gives []."""
    verts = board.vertices
    if len(verts) > ENUM_VERTEX_CAP:
        raise SizeCapError(f"enumeration capped at {ENUM_VERTEX_CAP} vertices")
    adj = board.neighbors()
    out = []

    def rec(free, chosen, weight):
        if not free:
            out.append((chosen, weight))
            return
        v = min(free)
        for u, w in adj[v]:
            if u in free:  # u > v, as v is the least free cell
                rec(free - {v, u}, chosen + [(v, u)], weight * w)

    rec(frozenset(verts), [], 1)
    return out


# --- staircase graphs ---


def a_seq(n):
    """Order of the sandpile group of the n-th staircase graph."""
    return det_int(reduced_laplacian(p_graph(n)))


def a_seq_upto(n):
    """[a_seq(1), ..., a_seq(n)], by shooting down the rows of P_n.

    A diagonal cell (k, k) has no row above it coupled to it, so
    t_k = x_(k,k) is a free unknown, and every other x_(i,j) is an
    integer vector over t_1..t_i: row (k, j)'s Laplacian equation,
    without its -1 on (k + 1, j), gives x_(k+1,j).  That edge is P_k's
    sink edge at (k, j), with the same degree, so those k vectors are the
    rows R_k of L(P_k) x restricted to row k, the rows above being zero.
    t -> x is unimodular (as in `formulas.band_reduce`), and
    det R_k = det L(P_k) = a_k.  Only rows k - 1 and k are kept, read
    sparse from `p_graph(n)`, with no division.  R_k goes to `det_int`
    with its columns reversed, the newest t first, so the zero-skipping
    kernel meets R_k's zeros early; that multiplies the determinant by
    (-1)^(k(k-1)/2), and a result of the other sign (a_k > 0, as L(P_k)
    is positive definite) raises ArithmeticError.  An n above
    A_SEQ_MAX_N raises SizeCapError before any work.
    """
    if n > A_SEQ_MAX_N:
        raise SizeCapError(f"staircase orders capped at n = {A_SEQ_MAX_N}")
    g = p_graph(n)
    x, seq = {}, []  # cell index -> vector over t_1..t_k, rows k - 1 and k
    for k in range(1, n + 1):
        for vec in x.values():
            vec.append(0)
        cells = range(g.index[(k, 1)], g.index[(k, k)] + 1)
        x[cells[-1]] = [0] * (k - 1) + [1]
        below = [g.index.get((k + 1, j)) for j in range(1, k + 1)]
        rows = []
        for u, down in zip(cells, below):
            acc = [g.out_degree[u] * c for c in x[u]]
            for v, w in g.out[u].items():
                if v != down:
                    acc = [a - w * b for a, b in zip(acc, x[v])]
            rows.append(acc)
        ak = det_int([row[::-1] for row in rows]) * (-1) ** (k * (k - 1) // 2)
        if ak <= 0:
            raise ArithmeticError(f"staircase order a_{k} came out as {ak}")
        seq.append(ak)
        x = {u: x[u] for u in cells} | dict(zip(below, rows))
    return seq


def distance_config(n):
    """Sand equal to each vertex's distance from the sink."""
    g = p_graph(n)
    return tuple(n + 1 - i for i, _ in g.labels)


def diagonal_config(n):
    """One grain on each diagonal vertex (the degree < 3 boundary)."""
    g = p_graph(n)
    return tuple(1 if i == j else 0 for i, j in g.labels)


def pn_embed(n, c):
    """Unfold a staircase configuration into a dihedrally symmetric
    configuration on the 2n x 2n grid, through the orbit map of its D4
    fold (`grid_fold`).

    P_n's vertices, numbered row-major, are the grid's D4 orbit
    representatives in reverse order: vertex (i, j) stands for the cell
    (n + 1 - i, n + 1 - j) and its orbit."""
    (thresholds, _), orbit = grid_fold(2 * n, 2 * n, "d4")
    if len(c) != len(thresholds):
        raise ValueError("staircase configuration has wrong length")
    return tuple(c[-1 - orbit(i, j)] for i in range(2 * n) for j in range(2 * n))
