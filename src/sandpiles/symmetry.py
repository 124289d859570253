"""Group actions on sandpile graphs and the folded (orbit) system.

A configuration fixed by a group action is one value per orbit.  The
folded firing system has one vertex per orbit: firing orbit Gv fires
every member of Gv once, which is a legal run of topplings because a
firing takes sand from no other vertex.  Its threshold is the
representative's out-degree, and the representative w of each orbit
gains the total weight of the edges from Gv's members into w (orbit
mates of w included).  The symmetrized Laplacian is this system as a
matrix (`system_matrix`); determinants, element orders, the identity
and the burning tests of symmetric configurations all run on it, with
about N/4 unknowns for the Klein action on an N-vertex grid and about
N/8 for the dihedral action on a square one.

Any graph folds through a `GroupAction`, built from its generators: the
column and row reflections for Klein, and the column reflection and a
quarter turn for D4.  The grid commands skip that path: `grid_fold`
builds the Klein or D4 fold of a grid straight from the quarter grid's
cells, with no unfolded graph and no group, and returns it with its
orbit map, which gives any cell's orbit index in O(1) and stores no
per-cell list.  `d_family` reads the quotient graphs off the Klein fold.
`grid_identity` runs on the D4 fold of a square grid (Klein otherwise),
takes one stabilization, started near its odometer from `grid_torsion`'s
closed-form estimate of the fold's torsion S^-1 1, and unfolds the
result through the orbit map, as `tilings.pn_embed` unfolds a staircase
configuration.  Counts (`checks.det_count`) and element orders
(`checks.grid_config_order`) run on the Klein fold S of every grid,
shooting through S's rows to one small matrix (`formulas.band_reduce`).
"""

from itertools import chain
from math import exp, pi, sin, sqrt
from operator import mul

from .engine import (
    _breadth_first,
    _identity,
    _order,
    _recurrents,
    burning_config,
    sink_weights,
)
from .errors import SymmetryError
from .graphs import SandpileGraph


class GroupAction:
    """The group that the permutations `perms` of the non-sink vertex
    indices generate (the sink is fixed).

    `generators` holds `perms` as tuples.  `elements` is the group,
    sorted, closed once under composition with the generators; equal
    elements (a non-faithful action) are kept once.  `orbits` lists the
    orbits in the order of their least members, `representatives` holds
    those least members, and `orbit_of[v]` is the index of v's orbit.
    """

    def __init__(self, perms):
        self.generators = [tuple(p) for p in perms]
        if not self.generators:
            raise ValueError("empty action")
        n = len(self.generators[0])
        if any(sorted(p) != list(range(n)) for p in self.generators):
            raise ValueError("element is not a permutation")
        group, new = set(), {tuple(range(n))}
        while new:
            group |= new
            new = {tuple(map(s.__getitem__, q))
                   for q in new for s in self.generators} - group
        self.elements = sorted(group)
        self._members = group
        self.degree = n
        self.orbits = []
        self.orbit_of = [None] * n
        for v in range(n):
            if self.orbit_of[v] is None:
                orb = sorted({p[v] for p in self.elements})
                for u in orb:
                    self.orbit_of[u] = len(self.orbits)
                self.orbits.append(orb)
        self.representatives = [orb[0] for orb in self.orbits]

    def validate_weights(self, g):
        """Check that the action permutes g's vertices and that every
        generator preserves edge weights, sink edges included; products
        of weight-preserving permutations preserve them too."""
        if self.degree != g.vertex_count:
            raise ValueError("action degree is not the graph's vertex count")
        for p in self.generators:
            for u in range(g.vertex_count):
                if g.sink_weight[p[u]] != g.sink_weight[u]:
                    raise ValueError("action does not preserve sink edges")
                image = {p[v]: w for v, w in g.out[u].items()}
                if image != g.out[p[u]]:
                    raise ValueError("action does not preserve edge weights")

    def apply(self, p, c):
        """Permute a configuration: (p.c)[p[v]] = c[v].  p must be one of
        `elements`, or ValueError is raised."""
        if len(c) != self.degree:
            raise ValueError("configuration has wrong length")
        if tuple(p) not in self._members:
            raise ValueError("permutation is not an element of the group")
        out = [0] * self.degree
        for v, x in enumerate(c):
            out[p[v]] = x
        return tuple(out)


def _reflections(m, n):
    """The row-major index array of the m x n grid, as a list of rows,
    flipped by columns and by rows.  Read row-major, each array is the
    permutation that sends a cell to its mirror image."""
    rows = [range(i * n, (i + 1) * n) for i in range(m)]
    return [r[::-1] for r in rows], rows[::-1]


def klein_action(m, n):
    """The Klein four-group {e, sigma, tau, sigma.tau} on the m x n grid,
    generated by sigma, the column reflection, and tau, the row
    reflection; on a one-row or one-column grid some elements coincide."""
    return GroupAction(chain(*a) for a in _reflections(m, n))


def dihedral_action(n):
    """The dihedral group D4 on the n x n grid, generated by the column
    reflection and its transpose, a quarter turn.  Its h(h+1)/2 orbits,
    h = ceil(n/2), are represented by the cells (i, j) with
    i <= j <= h: about n^2/8, against about n^2/4 for Klein."""
    flip = _reflections(n, n)[0]
    return GroupAction([chain(*flip), chain(*zip(*flip))])


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
    return system_matrix(*_folded_system(g, action))


def _system_rows(thresholds, out):
    """The rows of a folded system's matrix, row w as {column v: entry}:
    thresholds on the diagonal, and -out[v][w] in row w, column v."""
    rows = [{w: t} for w, t in enumerate(thresholds)]
    for v, gains in enumerate(out):
        for w, wt in gains.items():
            rows[w][v] = rows[w].get(v, 0) - wt
    return rows


def system_matrix(thresholds, out):
    """The matrix of a folded system, `_system_rows` made dense."""
    sym = [[0] * len(thresholds) for _ in thresholds]
    for w, row in enumerate(_system_rows(thresholds, out)):
        for v, x in row.items():
            sym[w][v] = x
    return sym


def grid_fold(rows, cols, group):
    """The folded system (thresholds, out) of the rows x cols grid under
    `group`, "klein" or "d4" (square grids only), and the orbit map:
    orbit(i, j) is the orbit index of the cell (i, j), 0-based.  Equal
    to `_folded_system` and `orbit_of` of `klein_action` or
    `dihedral_action` on `grid_sandpile`, built from the lattice alone.

    The representatives are the quarter grid's cells (i, j), 0-based,
    with i < ceil(rows/2), j < ceil(cols/2), and also i <= j for D4,
    numbered row by row as `GroupAction` numbers its orbits.  Every
    threshold is 4, and each representative gains one grain from the
    orbit of each of its grid neighbours: O(orbits) work.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if group not in ("klein", "d4"):
        raise ValueError(f"unknown grid group {group!r}")
    if group == "d4" and rows != cols:
        raise ValueError("D4 folds square grids only")
    w = (cols + 1) // 2
    fold_row = [min(i, rows - 1 - i) for i in range(rows)]
    fold_col = [min(j, cols - 1 - j) for j in range(cols)]

    def orbit(i, j):
        a, b = fold_row[i], fold_col[j]
        if group == "klein":
            return a * w + b
        a, b = min(a, b), max(a, b)
        # representative row r holds the w - r cells (r, r..w-1)
        return a * w - a * (a - 1) // 2 + b - a

    reps = _quarter_cells(rows, cols, group)
    out = [{} for _ in reps]
    for k, (i, j) in enumerate(reps):
        for u in ((i - 1, j), (i, j - 1), (i, j + 1), (i + 1, j)):
            if 0 <= u[0] < rows and 0 <= u[1] < cols:
                gains = out[orbit(*u)]
                gains[k] = gains.get(k, 0) + 1
    return ([4] * len(reps), out), orbit


def _quarter_cells(rows, cols, group):
    """The representatives of `grid_fold`, in its orbit order."""
    h, w = (rows + 1) // 2, (cols + 1) // 2
    return [(i, j) for i in range(h) for j in range(i if group == "d4" else 0, w)]


# The series of `grid_torsion` is cut where the terms it leaves out sum to
# less than TORSION_TAIL at any cell.
TORSION_TAIL = 0.02


def grid_torsion(rows, cols, cells):
    """A float estimate of the torsion S^-1 1 of the rows x cols grid's
    fold at each cell (i, j) of `cells` (0-based).

    It is the continuum torsion of the (rows + 1) x (cols + 1) rectangle
    (-Laplacian = 1 inside, 0 on the boundary) at (i + 1, j + 1); on
    every grid up to 20 x 20 and at 48 x 48 it lies between the discrete
    torsion and 0.06 above it.  With x across the shorter side, of
    length a, and y along the longer, of length b,
      tau(x, y) = x (a - x) / 2
                  - sum_{k odd} 4 a^2 / (pi k)^3 sin(k pi x / a) ch_k(y),
      ch_k(y) = cosh(k pi (y - b/2) / a) / cosh(k pi b / 2a)
              = exp(-k pi y / a) (1 + exp(-k pi (b - 2y) / a))
                / (1 + exp(-k pi b / a))       for y <= b/2,
    the ratio cosh s / cosh t written as exp(|s| - t) (1 + e^-2|s|) /
    (1 + e^-2t), so that nothing overflows.  The sine terms are tabulated per x and the
    ratios per y.  The sum stops at k = a / sqrt(pi^3 TORSION_TAIL),
    which leaves out less than a^2 / (pi^3 k^2) = TORSION_TAIL, and at
    each y where a term falls below the float resolution of the largest
    value, a^2 / 8: along a long strip most cells keep the parabola alone.
    """
    if rows > cols:
        rows, cols, cells = cols, rows, [(j, i) for i, j in cells]
    a, b = rows + 1, cols + 1
    ks = range(1, int(a / sqrt(pi ** 3 * TORSION_TAIL)) + 1, 2)
    coef = [4 * a * a / (pi * k) ** 3 for k in ks]
    across = [[c * sin(k * pi * x / a) for k, c in zip(ks, coef)]
              for x in range(1, (rows + 3) // 2)]
    along, resolution = [], a * a * 2.0 ** -55
    for y in range(1, (cols + 3) // 2):
        ratios = []
        for k, c in zip(ks, coef):
            r = (exp(-k * pi * y / a) * (1 + exp(-k * pi * (b - 2 * y) / a))
                 / (1 + exp(-k * pi * b / a)))
            if c * r < resolution:
                break
            ratios.append(r)
        if not ratios:  # the ratios fall with y up to b/2
            break
        along.append(ratios)
    return [(i + 1) * (a - i - 1) / 2 - (sum(map(mul, across[i], along[j]))
                                         if j < len(along) else 0)
            for i, j in cells]


def grid_identity(rows, cols):
    """The identity of the rows x cols grid, as `symmetric_identity` on
    the D4 fold of a square grid and the Klein fold of any other (D4
    folds by 8, which saves toppling work), unfolded through the orbit
    map of `grid_fold`.

    The one stabilization starts from `grid_torsion`'s guess at the
    odometer and is finished by untoppling where it started past it, down
    to the configuration that one burning pass certifies
    (`engine._identity`); the guess only moves the start, so the result
    is exact for any guess."""
    group = "d4" if rows == cols else "klein"
    system, orbit = grid_fold(rows, cols, group)
    e = _identity(*system, grid_torsion(rows, cols, _quarter_cells(rows, cols, group)))
    return tuple(e[orbit(i, j)] for i in range(rows) for j in range(cols))


def d_family(kind, m, n):
    """Folded quotient graphs whose reduced Laplacians are the block
    matrices of the symmetric-recurrent counts: the 2m x 2n (D),
    2m x (2n-1) (Dprime) or (2m-1) x (2n-1) (Ddoubleprime) grid folded by
    its Klein symmetries, on the orbit representatives (i, j), i <= m,
    j <= n.

    The graph is read off the sparse fold `grid_fold`, in O(orbits):
    the grains that firing orbit v gives orbit w are an edge w -> v of
    that weight, and each sink weight is w's threshold less the grains
    it gains (`engine.sink_weights`).  Its reduced Laplacian is the
    symmetrized Laplacian of `grid_sandpile` under `klein_action`, the
    generic path that the tests compare it with.

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
    (thresholds, out), _ = grid_fold(rows, cols, "klein")
    labels = [(i + 1, j + 1) for i, j in _quarter_cells(rows, cols, "klein")]
    edges = {(labels[w], labels[v]): wt for v, gains in enumerate(out)
             for w, wt in gains.items() if w != v}
    sink = dict(zip(labels, sink_weights(thresholds, out)))
    return SandpileGraph(labels, edges, sink, undirected=(kind == "D"))


def symmetric_config_order(g, action, c):
    """Element order of a configuration c fixed by the action, solved on
    the folded system of one unknown per orbit.

    Firing v subtracts row v of the reduced Laplacian L, so the order is
    taken against L^T (see `engine.config_order`).  L^T commutes with
    the action, so x = L^-T c is fixed by it, and L^T x = c folds to
    S z = fold(c) with x = unfold(z) and S the symmetrized Laplacian,
    which is the fold of L^T; this holds on directed graphs too.  So the
    order is that of fold(c) against S (`engine._order`), solved in the
    numbering of `engine._breadth_first`, since the orbits' own
    numbering lays a wide grid's band along its long side.  Raises
    SymmetryError if c is not symmetric.
    """
    return _order(*_breadth_first(symmetrized_laplacian(g, action), fold(action, c)))


def fold(action, c):
    """Collapse a symmetric configuration to one value per orbit."""
    if len(c) != action.degree:
        raise ValueError("configuration has wrong length")
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

    Runs the up-set search `engine._recurrents` on the folded (orbit)
    system: one Dhar burning pass per search node, at most k*R + 1 for
    k orbits and R results, the values above each pass's floor taken
    untested since recurrents form an up-set.  `SANDPILE_ENUM_CAP`
    bounds the box, the number of symmetric stable configurations.  The
    passes hold on folds of undirected graphs only, so, like
    `engine.is_recurrent`, it refuses directed graphs.
    """
    thresholds, out = _folded_system(g, action)
    beta = fold(action, burning_config(g))
    return [unfold(action, o) for o in _recurrents(thresholds, out, beta)]
