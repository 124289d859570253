"""Group actions on sandpile graphs and the folded (orbit) system.

A configuration fixed by a group action is one value per orbit.  The
folded firing system has one vertex per orbit: firing orbit Gv fires
every member of Gv once, which is a legal run of topplings because a
firing takes sand from no other vertex.  Its threshold is the
representative's out-degree, and the representative w of each orbit
gains the total weight of the edges from Gv's members into w (orbit
mates of w included).  The symmetrized Laplacian is this system as a
matrix; determinants, element orders, the identity and the burning
tests of symmetric configurations all run on it, with about N/4
unknowns for the Klein action on an N-vertex grid and about N/8 for the
dihedral action on a square one.  `grid_action` picks the larger group
for a grid; counts stay on the Klein fold, whose determinant is the
number of Klein-symmetric recurrents.  Each grid group is read off the
grid's row-major index array: flipped by rows, by columns and by both
for Klein, and those four arrays with their transposes for D4.
"""

from itertools import chain, product
from math import gcd, prod

from .engine import _burns, _enum_cap, _identity, burning_config
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


def _reflections(m, n):
    """The row-major index array of the m x n grid, as a list of rows,
    and the same array flipped by columns, by rows and by both.  Read
    row-major, each array is the permutation that sends a cell to its
    image under that reflection."""
    rows = [range(i * n, (i + 1) * n) for i in range(m)]
    return [rows, [r[::-1] for r in rows],
            rows[::-1], [r[::-1] for r in rows[::-1]]]


def klein_action(m, n):
    """The Klein four-group {e, sigma, tau, sigma.tau} on the m x n grid,
    where sigma reflects columns and tau reflects rows.  Coincident
    elements (on one-row or one-column grids) are deduplicated.
    """
    return GroupAction(chain.from_iterable(a) for a in _reflections(m, n))


def dihedral_action(n):
    """The dihedral group D4 on the n x n grid: the Klein four-group and
    its composites with the transpose (i, j) -> (j, i).  Its h(h+1)/2
    orbits, h = ceil(n/2), are represented by the cells (i, j) with
    i <= j <= h: about n^2/8, against about n^2/4 for Klein."""
    arrays = _reflections(n, n)
    return GroupAction(chain.from_iterable(a)
                       for a in arrays + [list(zip(*a)) for a in arrays])


def grid_action(rows, cols):
    """The largest grid symmetry group the package folds by: D4 on a
    square grid, the Klein four-group otherwise.  Both fix every
    constant configuration and the identity, and every element order is
    the same on either fold."""
    return dihedral_action(rows) if rows == cols else klein_action(rows, cols)


def _folded_system(g, action):
    """The firing system on orbits: (thresholds, out) with
    thresholds[Gw] = out_degree[w] and out[Gv][Gw] the weight of the
    edges from the members of Gv into the representative w.

    Exact on every automorphism group: the members of an orbit share
    their out-degree, and by symmetry every member of Gw gains what w
    gains, so the system follows the unfolded one orbit by orbit.
    """
    action.validate_weights(g)
    reps, orbit_of = action.representatives, action.orbit_of
    out = [{} for _ in reps]
    for u, edges in enumerate(g.out):
        gains = out[orbit_of[u]]
        for w, wt in edges.items():
            row = orbit_of[w]
            if reps[row] == w:
                gains[row] = gains.get(row, 0) + wt
    return [g.out_degree[w] for w in reps], out


def symmetrized_laplacian(g, action):
    """Orbit-level firing matrix: the entry in row Gw, column Gv is the
    w-component of the sum of the Laplacian rows over the orbit of v.

    Read off the folded system, so only the k x k orbit matrix is
    stored: row Gw has out_degree[w] in w's own column, less the weight
    every orbit gives w when it fires.
    """
    thresholds, out = _folded_system(g, action)
    sym = [[0] * len(thresholds) for _ in thresholds]
    for col, gains in enumerate(out):
        sym[col][col] += thresholds[col]
        for row, wt in gains.items():
            sym[row][col] -= wt
    return sym


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


def symmetric_identity(g, action):
    """The identity of g's sandpile group, as `engine.identity_config`,
    computed on the folded system of an action that preserves g.

    The identity is fixed by every automorphism, and so are 2 c_max and
    the leftover of its stabilization, so both stabilizations topple
    orbits; only the result is unfolded.
    """
    return unfold(action, _identity(*_folded_system(g, action)))


def enumerate_symmetric_recurrents(g, action):
    """All recurrent configurations fixed by every group element, in the
    lexicographic order of their orbit vectors.

    Iterates over the folded (orbit) space and runs each burning test on
    the folded system, so the cap applies to the number of symmetric
    stable configurations rather than all of them.  Like
    `engine.is_recurrent`, refuses directed graphs.
    """
    thresholds, out = _folded_system(g, action)
    beta = fold(action, burning_config(g))
    total = prod(thresholds)
    if total > _enum_cap():
        raise SizeCapError(
            f"{total} symmetric stable configurations exceeds cap {_enum_cap()}"
        )
    return [unfold(action, o)
            for o in product(*(range(t) for t in thresholds))
            if _burns(thresholds, out, o, beta)]
