"""Perfect-matching counts and the staircase-graph machinery.

Matching counts on grid-shaped boards use a column-sweep bitmask dynamic
program over boundary profiles, swept along the longer side of a board
without wrap edges; twisted (wrap-edge) boards are handled by summing the
plain DP over all seam subsets.  Small arbitrary graphs fall back to
recursive enumeration, which doubles as the oracle for the DP in the
tests.
"""

from .errors import SizeCapError
from .graphs import reduced_laplacian, p_graph
from .linalg import det_int

ENUM_VERTEX_CAP = 28


# --- matchings ---


def _grid_structure(board):
    """Detect a full rows x cols grid with only unit and wrap edges.

    Returns (rows, cols, unit_edges, wraps) or None, where wraps is a
    list of ((u, v), weight) twisted seam edges.
    """
    verts = board.vertices
    rows = max(r for r, _ in verts)
    cols = max(c for _, c in verts)
    if len(verts) != rows * cols or verts[0] != (1, 1):
        return None
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
    return rows, cols, unit, wraps


def _grid_dp(rows, cols, unit, removed):
    """Weighted matching count of a grid with some cells pre-covered."""
    states = {0: 1}
    full = (1 << rows) - 1

    for c in range(1, cols + 1):
        col_removed = 0
        for r in range(1, rows + 1):
            if (r, c) in removed:
                col_removed |= 1 << (r - 1)

        def fill(r, covered, out_mask, weight, acc, c=c, col_removed=col_removed):
            if r > rows:
                acc[out_mask] = acc.get(out_mask, 0) + weight
                return
            bit = 1 << (r - 1)
            if covered & bit or col_removed & bit:
                fill(r + 1, covered, out_mask, weight, acc)
                return
            vw = unit.get(((r, c), (r + 1, c)))
            if (
                vw
                and r < rows
                and not covered & (bit << 1)
                and not col_removed & (bit << 1)
            ):
                fill(r + 2, covered | (bit << 1), out_mask, weight * vw, acc)
            hw = unit.get(((r, c), (r, c + 1)))
            if hw and c < cols and (r, c + 1) not in removed:
                fill(r + 1, covered, out_mask | bit, weight * hw, acc)

        new_states = {}
        for mask, weight in states.items():
            fill(1, mask, 0, weight, new_states)
        states = new_states
        if not states:
            return 0
    return states.get(0, 0) if full else 0


def count_matchings(board):
    """Weighted count of perfect matchings of a board."""
    grid = _grid_structure(board)
    if grid is not None:
        rows, cols, unit, wraps = grid
        if rows * cols % 2:
            return 0
        if not wraps and rows > cols:
            # The DP's state is a bitmask over one column, so sweep along
            # the longer side.
            rows, cols = cols, rows
            unit = {((c1, r1), (c2, r2)): w
                    for ((r1, c1), (r2, c2)), w in unit.items()}
        total = 0
        for subset in range(1 << len(wraps)):
            removed = set()
            weight = 1
            for i, ((u, v), w) in enumerate(wraps):
                if subset >> i & 1:
                    removed.add(u)
                    removed.add(v)
                    weight *= w
            total += weight * _grid_dp(rows, cols, unit, removed)
        return total
    if len(board.vertices) <= ENUM_VERTEX_CAP:
        return sum(w for _, w in enumerate_matchings(board))
    raise SizeCapError("board too large for both counting strategies")


def enumerate_matchings(board):
    """All perfect matchings as (edge list, weight) pairs."""
    verts = board.vertices
    if len(verts) > ENUM_VERTEX_CAP:
        raise SizeCapError(f"enumeration capped at {ENUM_VERTEX_CAP} vertices")
    if len(verts) % 2:
        return []
    adj = board.neighbors()
    order = {v: i for i, v in enumerate(verts)}
    covered = [False] * len(verts)
    chosen = []
    out = []

    def rec(weight):
        try:
            v = next(i for i in range(len(verts)) if not covered[i])
        except StopIteration:
            out.append((list(chosen), weight))
            return
        covered[v] = True
        for u, w in adj[verts[v]]:
            ui = order[u]
            if not covered[ui]:
                covered[ui] = True
                chosen.append((verts[v], u) if verts[v] < u else (u, verts[v]))
                rec(weight * w)
                chosen.pop()
                covered[ui] = False
        covered[v] = False

    rec(1)
    return out


# --- staircase graphs ---


def a_seq(n):
    """Order of the sandpile group of the n-th staircase graph."""
    return det_int(reduced_laplacian(p_graph(n)))


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
    configuration on the 2n x 2n grid.

    The grid cell (R, C) reads the staircase vertex found by folding
    both coordinates into the first quadrant and sorting them under the
    diagonal.
    """
    g = p_graph(n)
    if len(c) != g.vertex_count:
        raise ValueError("configuration has wrong length for the staircase")
    at = {lab: val for lab, val in zip(g.labels, c)}
    out = []
    for bigr in range(1, 2 * n + 1):
        for bigc in range(1, 2 * n + 1):
            r = min(bigr, 2 * n + 1 - bigr)
            col = min(bigc, 2 * n + 1 - bigc)
            if col > r:
                r, col = col, r
            out.append(at[(n + 1 - col, n + 1 - r)])
    return tuple(out)
