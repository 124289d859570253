"""Group actions on sandpile graphs and the symmetrized reduced Laplacian."""

from itertools import product
from math import gcd, prod

from .engine import _enum_cap, is_recurrent
from .errors import SizeCapError, SymmetryError
from .graphs import SandpileGraph, grid_sandpile
from .linalg import det_int, solve_int


class GroupAction:
    """A finite set of vertex permutations fixing the sink.

    Permutations are stored as tuples over non-sink vertex indices.
    Duplicates are removed (so a non-faithful action is automatically
    replaced by its faithful quotient).  Closure under composition and
    the presence of the identity are checked at construction, where the
    orbits are also found once: `orbits` lists them in the order of
    their least members, `representatives` holds those least members,
    and `orbit_of[v]` is the index of v's orbit.
    """

    def __init__(self, perms):
        elems = sorted(set(tuple(p) for p in perms))
        if not elems:
            raise ValueError("empty action")
        n = len(elems[0])
        ident = tuple(range(n))
        if ident not in elems:
            raise ValueError("action does not contain the identity")
        eset = set(elems)
        for p in elems:
            if sorted(p) != list(range(n)):
                raise ValueError("element is not a permutation")
            for q in elems:
                if tuple(p[q[i]] for i in range(n)) not in eset:
                    raise ValueError("action is not closed under composition")
        self.elements = elems
        self.degree = n
        self.orbits = []
        self.orbit_of = [None] * n
        for v in range(n):
            if self.orbit_of[v] is None:
                orb = sorted({p[v] for p in elems})
                for u in orb:
                    self.orbit_of[u] = len(self.orbits)
                self.orbits.append(orb)
        self.representatives = [orb[0] for orb in self.orbits]

    def validate_weights(self, g):
        """Check that every element preserves edge weights (sink included)."""
        for p in self.elements:
            for u in range(g.vertex_count):
                if g.sink_weight[p[u]] != g.sink_weight[u]:
                    raise ValueError("action does not preserve sink edges")
                image = {p[v]: w for v, w in g.out[u].items()}
                if image != g.out[p[u]]:
                    raise ValueError("action does not preserve edge weights")

    def apply(self, p, c):
        """Permute a configuration: (p.c)[p[v]] = c[v]."""
        out = [0] * self.degree
        for v, x in enumerate(c):
            out[p[v]] = x
        return tuple(out)


def klein_action(m, n):
    """The Klein four-group {e, sigma, tau, sigma.tau} on the m x n grid,
    where sigma reflects columns and tau reflects rows.  Coincident
    elements (on one-row or one-column grids) are deduplicated.
    """

    def idx(i, j):
        return (i - 1) * n + (j - 1)

    def perm(f):
        p = [0] * (m * n)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                p[idx(i, j)] = idx(*f(i, j))
        return tuple(p)

    return GroupAction(
        [
            perm(lambda i, j: (i, j)),
            perm(lambda i, j: (i, n - j + 1)),
            perm(lambda i, j: (m - i + 1, j)),
            perm(lambda i, j: (m - i + 1, n - j + 1)),
        ]
    )


def symmetrized_laplacian(g, action):
    """Orbit-level firing matrix: the entry in row Gw, column Gv is the
    w-component of the sum of the Laplacian rows over the orbit of v.

    Built from the out-edges, so only the k x k orbit matrix is stored:
    row Gw starts as out_degree[w] in w's own column, and every edge
    u -> w into a representative w takes its weight off column Gu.
    """
    action.validate_weights(g)
    reps, orbit_of = action.representatives, action.orbit_of
    out = [[0] * len(reps) for _ in reps]
    for row, w in enumerate(reps):
        out[row][row] = g.out_degree[w]
    for u, edges in enumerate(g.out):
        col = orbit_of[u]
        for w, wt in edges.items():
            row = orbit_of[w]
            if reps[row] == w:
                out[row][col] -= wt
    return out


def d_family(kind, m, n):
    """Folded quotient graphs whose reduced Laplacians are the block
    matrices of the symmetric-recurrent counts: the 2m x 2n (D),
    2m x (2n-1) (Dprime) or (2m-1) x (2n-1) (Ddoubleprime) grid folded by
    its Klein symmetries, on the orbit representatives (i, j), i <= m,
    j <= n.  Each off-diagonal entry of the symmetrized Laplacian is an
    edge and each row sum a sink weight.

    D is undirected (a grid with a weight-2 sink edge at the corner);
    Dprime and Ddoubleprime are directed, with weight-2 edges pointing
    back toward the sink side from the folded middle column (Dprime) and
    additionally from the folded middle row (Ddoubleprime).
    """
    shapes = {"D": (2 * m, 2 * n), "Dprime": (2 * m, 2 * n - 1),
              "Ddoubleprime": (2 * m - 1, 2 * n - 1)}
    if kind not in shapes:
        raise ValueError(f"unknown family kind {kind!r}")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rows, cols = shapes[kind]
    grid, action = grid_sandpile(rows, cols), klein_action(rows, cols)
    labels = [grid.labels[r] for r in action.representatives]
    sym = symmetrized_laplacian(grid, action)
    edges = {(u, v): -x for u, row in zip(labels, sym)
             for v, x in zip(labels, row) if v != u and x}
    sink = {u: sum(row) for u, row in zip(labels, sym) if sum(row)}
    return SandpileGraph(labels, edges, sink, undirected=(kind == "D"))


def count_symmetric_recurrents(g, action):
    return det_int(symmetrized_laplacian(g, action))


def symmetric_config_order(g, action, c):
    """Element order of a configuration c fixed by the action, solved on
    the folded system of one unknown per orbit.

    Firing v subtracts row v of the reduced Laplacian L, so the order is
    taken against L^T (see `engine.config_order`).  L^T commutes with
    the action, so x = L^-T c is fixed by it, and L^T x = c folds to
    S z = fold(c) with x = unfold(z) and S the symmetrized Laplacian,
    which is the fold of L^T; this holds on directed graphs too.  With
    det = det(S) and y = det * z, the order is |det| / gcd(det, y).
    Raises SymmetryError if c is not symmetric.
    """
    if len(c) != g.vertex_count:
        raise ValueError("configuration has wrong length")
    det, y = solve_int(symmetrized_laplacian(g, action), list(fold(action, c)))
    return abs(det) // gcd(det, *y)


def fold(action, c):
    """Collapse a symmetric configuration to one value per orbit."""
    for orb in action.orbits:
        if len({c[u] for u in orb}) != 1:
            raise SymmetryError("configuration is not symmetric under the action")
    return tuple(c[r] for r in action.representatives)


def unfold(action, o):
    """Inverse of fold: replicate each orbit value across the orbit."""
    if len(o) != len(action.orbits):
        raise ValueError("orbit vector has wrong length")
    return tuple(o[k] for k in action.orbit_of)


def enumerate_symmetric_recurrents(g, action):
    """All recurrent configurations fixed by every group element.

    Iterates over the folded (orbit) space, so the cap applies to the
    number of symmetric stable configurations rather than all of them.
    """
    action.validate_weights(g)
    degs = [g.out_degree[r] for r in action.representatives]
    total = prod(degs)
    if total > _enum_cap():
        raise SizeCapError(
            f"{total} symmetric stable configurations exceeds cap {_enum_cap()}"
        )
    found = []
    for o in product(*(range(d) for d in degs)):
        c = tuple(o[k] for k in action.orbit_of)
        if is_recurrent(g, c):
            found.append(c)
    return found
