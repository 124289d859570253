"""Group actions on sandpile graphs and the symmetrized reduced Laplacian."""

from itertools import product
from math import gcd, prod

from .engine import _enum_cap, is_recurrent
from .errors import SizeCapError, SymmetryError
from .linalg import det_int, solve_int


class GroupAction:
    """A finite set of vertex permutations fixing the sink.

    Permutations are stored as tuples over non-sink vertex indices.
    Duplicates are removed (so a non-faithful action is automatically
    replaced by its faithful quotient).  Closure under composition and
    the presence of the identity are checked at construction.
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


class OrbitSet:
    """Partition of the non-sink vertices into orbits, with the
    row-major-least member of each orbit as its representative."""

    def __init__(self, action):
        n = action.degree
        seen = [False] * n
        self.orbits = []
        for v in range(n):
            if seen[v]:
                continue
            orb = sorted({p[v] for p in action.elements})
            for u in orb:
                seen[u] = True
            self.orbits.append(orb)
        self.representatives = [orb[0] for orb in self.orbits]
        self.orbit_of = [0] * n
        for k, orb in enumerate(self.orbits):
            for u in orb:
                self.orbit_of[u] = k


def symmetrized_laplacian(g, action):
    """Orbit-level firing matrix: the entry in row Gw, column Gv is the
    w-component of the sum of the Laplacian rows over the orbit of v.

    Built from the out-edges, so only the k x k orbit matrix is stored:
    row Gw starts as out_degree[w] in w's own column, and every edge
    u -> w into a representative w takes its weight off column Gu.
    """
    action.validate_weights(g)
    oset = OrbitSet(action)
    reps = oset.representatives
    out = [[0] * len(reps) for _ in reps]
    for row, w in enumerate(reps):
        out[row][row] = g.out_degree[w]
    for u, edges in enumerate(g.out):
        col = oset.orbit_of[u]
        for w, wt in edges.items():
            row = oset.orbit_of[w]
            if reps[row] == w:
                out[row][col] -= wt
    return out


def count_symmetric_recurrents(g, action):
    return det_int(symmetrized_laplacian(g, action))


def symmetric_config_order(g, action, c):
    """Element order of a configuration c fixed by the action, solved on
    the folded system of one unknown per orbit.

    L commutes with the action, so x = L^-1 c is fixed by it, and on an
    undirected graph (L symmetric) L x = c folds to S z = fold(c) with
    x = unfold(z) and S the symmetrized Laplacian.  With det = det(S) and
    y = det * z, the order is |det| / gcd(det, y), as in
    `engine.config_order`.  Raises SymmetryError if c is not symmetric.
    """
    if not g.undirected:
        raise ValueError("folded element orders require an undirected graph")
    if len(c) != g.vertex_count:
        raise ValueError("configuration has wrong length")
    det, y = solve_int(symmetrized_laplacian(g, action), list(fold(action, c)))
    return abs(det) // gcd(det, *y)


def fold(action, c):
    """Collapse a symmetric configuration to one value per orbit."""
    oset = OrbitSet(action)
    for orb in oset.orbits:
        if len({c[u] for u in orb}) != 1:
            raise SymmetryError("configuration is not symmetric under the action")
    return tuple(c[r] for r in oset.representatives)


def unfold(action, o):
    """Inverse of fold: replicate each orbit value across the orbit."""
    oset = OrbitSet(action)
    if len(o) != len(oset.orbits):
        raise ValueError("orbit vector has wrong length")
    return tuple(o[k] for k in oset.orbit_of)


def enumerate_symmetric_recurrents(g, action):
    """All recurrent configurations fixed by every group element.

    Iterates over the folded (orbit) space, so the cap applies to the
    number of symmetric stable configurations rather than all of them.
    """
    action.validate_weights(g)
    oset = OrbitSet(action)
    degs = [g.out_degree[r] for r in oset.representatives]
    total = prod(degs)
    if total > _enum_cap():
        raise SizeCapError(
            f"{total} symmetric stable configurations exceeds cap {_enum_cap()}"
        )
    found = []
    for o in product(*(range(d) for d in degs)):
        c = tuple(o[k] for k in oset.orbit_of)
        if is_recurrent(g, c):
            found.append(c)
    return found
