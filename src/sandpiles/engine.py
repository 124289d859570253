"""Core sandpile dynamics: stabilization, recurrence, identity, orders.

One toppling kernel, `_topple`, runs on any firing system: a threshold
per vertex and, per vertex, the grains each target gains when it fires.
A sandpile graph is the system (out_degree, out); `symmetry` builds the
folded system of a group action, whose vertices are orbits, and runs the
same kernel, burning test and identity formula on it.  The system's
matrix S (`graphs._system_rows`; the reduced Laplacian is S^T) is read
through the system itself: firing u gives c - S u (`_fired`), the sink
weights are S 1, and element orders are solved against S's rows.

The identity of the general path takes two stabilizations from zero.
Given a float estimate of the torsion S^-1 1, `_identity` takes one
instead, started near the identity's firing potential S^-1 e;
`symmetry.grid_identity` passes such an estimate for grids.  A start
past the odometer in places is corrected by untoppling (`_descend`,
after Friedrich and Levine 2013): least action keeps the firing vector
at or above the odometer, and the last burning pass certifies the
result.

Recurrence is decided by one pass of Dhar's burning (`_spread`, run by
`_floor`), valid on undirected systems and their folds only: the pass
gives the least value of one coordinate at which a stable configuration
still burns.  The burning test `_burns` (for `is_recurrent`) is one
such pass, the search that lists recurrents makes one per search node,
taking the values above each floor untested, since recurrents form an
up-set, and the identity's descent makes one per untoppling round.
"""

import os
from collections import deque
from math import ceil, gcd

from .errors import SizeCapError
from .graphs import _system_rows
from .linalg import solve_int

DEFAULT_ENUM_CAP = 10**7

# With tau, `_identity` topples S z, z = ceil(SECOND_START * tau): x = S w
# for a large enough integer w >= z, with z's firings still to come, and
# x's odometer w - S^-1 e leaves z - S^-1 e of them.  S^-1 e / tau stays
# below 2.38 on the square grids measured (the identity e has mean about
# 2.25), so there the toppling needs no descent.  Firings forward + back
# and burning passes on the D4 fold, at 48^2 / 128^2 / 256^2:
#   2.3   1,011 + 576 in 4 / 38,628 + 63,798 in 57 /
#         533,968 + 1,037,640 in 243
#   2.35  1,764 in 1 / 59,732 + 22,954 in 18 / 791,771 + 328,407 in 86
#   2.38  2,560 in 1 / 73,953 in 1 / 1,043,599 in 1
#   2.4   3,093 in 1 / 98,682 in 1 / 1,430,359 in 1
#   3     19,018 in 1 / 841,932 in 1 / 13,034,760 in 1
# and 272,095 + 10,597 in 13 passes on the Klein fold of 200 x 100 with
# 2.38.  Each pass walks every orbit, so a start just past the odometer
# costs little and one far past it about a pass per surplus firing.
SECOND_START = 2.38


def max_stable(g):
    """c_max: out-degree minus one everywhere."""
    return tuple(d - 1 for d in g.out_degree)


def burning_config(g):
    """One grain per unit of sink-edge weight (undirected graphs only)."""
    if not g.undirected:
        raise ValueError("burning configuration requires an undirected graph")
    return tuple(g.sink_weight)


def _topple(thresholds, out, c):
    """Stabilize c on a firing system, returning (stable config, firing
    vector).

    Firing v takes thresholds[v] grains from v and adds out[v][w] grains
    to each w; out[v] may name v itself (a folded system, where firing
    an orbit feeds its own representative).  Off a work queue, an
    unstable vertex fires floor(c_v / threshold_v) times at once, a legal
    run since no firing takes more than threshold_v from v or any sand
    from another vertex; the result is independent of the processing
    order (abelian property), so batching is purely speed.  A vertex is
    queued at most once, at or above its threshold, and only its own
    firing lowers it, so it fires at least once when it leaves the queue.

    c may hold negative entries, as a start pre-fired by `_fired` does: a
    vertex below its threshold never fires, so it only gains grains.  By
    least action, if c = c0 - S u0 with 0 <= u0 <= the odometer of c0,
    the result is c0's stable configuration and the firing vector is
    that odometer less u0.
    """
    amts = list(c)
    n = len(amts)
    fire = [0] * n
    queued = [a >= t for a, t in zip(amts, thresholds)]
    queue = deque(v for v in range(n) if queued[v])
    while queue:
        v = queue.popleft()
        queued[v] = False
        k = amts[v] // thresholds[v]
        fire[v] += k
        amts[v] -= k * thresholds[v]
        for w, wt in out[v].items():
            amts[w] += k * wt
            if amts[w] >= thresholds[w] and not queued[w]:
                queued[w] = True
                queue.append(w)
    return tuple(amts), tuple(fire)


def _burns(thresholds, out, c, beta):
    """Burning test of a stable c on an undirected system or its fold:
    c is recurrent iff c[0] is at least the floor that one `_floor` pass
    gives for coordinate 0 (recurrents form an up-set).  The empty
    configuration burns vacuously."""
    if not c:
        return True
    floor = _floor(thresholds, out, c, beta, 0)
    return floor is not None and floor <= c[0]


def _check_box(thresholds):
    """Raise SizeCapError if the stable box, prod(thresholds), exceeds
    `SANDPILE_ENUM_CAP`; the product stops growing once it passes."""
    raw, total = os.environ.get("SANDPILE_ENUM_CAP", DEFAULT_ENUM_CAP), 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"SANDPILE_ENUM_CAP must be an integer, not {raw!r}") from None
    for t in thresholds:
        total *= t
        if total > cap:
            raise SizeCapError(f"the stable box on {len(thresholds)} coordinates "
                               f"exceeds cap {cap}")


def _floor(thresholds, out, c, beta, j):
    """The least value of c[j] at which c is recurrent, or None if no
    value below thresholds[j] is, from one pass of Dhar's burning on
    c + beta; c[j] itself is not read.  Undirected systems and their
    folds only: there the pass is the burning test.

    A vertex burns once, when its grains reach its threshold, and then
    gives out[v][w] to each w.  j is held back: with F the set that
    burns without it, j burns against F from c[j] = max(0, t_j - beta_j
    - sum over w in F of out[w][j]) on, and the burning spreads the same
    way from every such value, so that floor is returned if every vertex
    burns once j has.  A fold's self-gain out[v][v] (the grains of v's
    orbit mates) reaches v only after v burns, since the whole orbit
    fires at once.
    """
    grains = [x + b for x, b in zip(c, beta)]
    grains[j] = beta[j]
    burnt = [a >= t for a, t in zip(grains, thresholds)]
    burnt[j] = False
    ready = [v for v, b in enumerate(burnt) if b]
    burnt[j] = True  # held back until F stops growing
    _spread(thresholds, out, grains, burnt, ready)
    floor = max(0, thresholds[j] - grains[j])
    if floor >= thresholds[j]:
        return None
    _spread(thresholds, out, grains, burnt, [j])
    return floor if all(burnt) else None


def _spread(thresholds, out, grains, burnt, ready):
    """Dhar's burning, in place: each vertex of `ready` (burnt already)
    gives out[v][w] grains to each w, and w burns and gives in turn once
    its grains reach its threshold.  Ends with `burnt` marking every
    vertex the fire reaches; the rest have grains below threshold."""
    while ready:
        for w, wt in out[ready.pop()].items():
            grains[w] += wt
            if not burnt[w] and grains[w] >= thresholds[w]:
                burnt[w] = True
                ready.append(w)


def _recurrents(thresholds, out, beta):
    """Every configuration of the stable box (0 <= c_v < thresholds[v])
    that passes the burning test, in lexicographic order.  Undirected
    systems and their folds only, as for `_floor`.

    Recurrents form an up-set of the box (Dhar): a stable configuration
    >= a recurrent one is recurrent.  So a prefix has a recurrent
    completion iff it burns with every later coordinate at its maximum
    t - 1, and the values of the next coordinate that keep one form the
    top interval [floor, t - 1] that one `_floor` pass gives.  The walk
    fixes the coordinates from last to first, one pass per search node,
    and emits the first coordinate's whole top interval with no further
    pass, untested: every value above a burning one burns too.  Grids
    and their folds number vertices row by row from the corner, so the
    corner row, which burning reaches first and where the top intervals
    are widest, lies deepest.  The root, c_max, burns, and every pushed
    value lies in a top interval, so every node has a floor and a result
    below it: k coordinates and R results take at most k*R + 1
    passes.  `SANDPILE_ENUM_CAP` bounds the box, checked before any pass
    (`_check_box`).
    """
    _check_box(thresholds)
    if not thresholds:
        return [()]  # the empty configuration burns vacuously
    top = [t - 1 for t in thresholds]
    c, found, stack = list(top), [], []

    def expand(j):
        # c[:j + 1] is at its top; c[j + 1:] is the node's suffix
        floor = _floor(thresholds, out, c, beta, j)
        if j:
            stack.extend((j, x) for x in range(floor, thresholds[j]))
        else:
            rest = c[1:]
            found.extend((x, *rest) for x in range(floor, thresholds[0]))

    expand(len(c) - 1)
    while stack:
        j, x = stack.pop()
        c[j] = x
        c[:j] = top[:j]
        expand(j - 1)
    found.sort()
    return found


def _fired(thresholds, out, c, u):
    """c - S u: c after firing each vertex v u[v] times, legal or not."""
    amts = [x - t * k for x, t, k in zip(c, thresholds, u)]
    for v, k in enumerate(u):
        if k:
            for w, wt in out[v].items():
                amts[w] += k * wt
    return amts


def sink_weights(thresholds, out):
    """S 1, each threshold less what every vertex gives it when it fires:
    on the fold of an undirected graph, the folded burning configuration."""
    return [-x for x in _fired(thresholds, out, [0] * len(out), [1] * len(out))]


def _identity(thresholds, out, tau=None):
    """(c_max + (c_max - (2 c_max)o))o, the identity e, on a firing system.

    Without tau, x = 2 c_max - (2 c_max)o is in the class of 0 and
    x >= c_max, so stab(x) = e: two stabilizations from zero, with no
    descent.  This path serves any firing system, directed ones included.

    With tau, any float vector (an estimate of the torsion S^-1 1, given
    for grid folds only), e is one stabilization of S z, with z =
    ceil(SECOND_START * tau), finished by `_descend`.  On a grid fold S
    is a nonsingular M-matrix, so adj(S) 1 >= 0 and det S > 0.  For N
    large, w = z + N adj(S) 1 is an integer vector with w >= z, and
    x = S w = S z + N det S 1 >= c_max is in the class of 0, so
    stab(x) = e.  S z is x - S (w - z), and toppling it forward gives a
    stable x - S u with u >= w - z >= 0, so u is at least x's odometer
    by least action, whatever tau was; `_descend` untopples from there
    down to the odometer and returns e.  Neither x nor w is built.
    """
    if tau is None:
        twice = [2 * (t - 1) for t in thresholds]
        x = [a - b for a, b in zip(twice, _topple(thresholds, out, twice)[0])]
        return _topple(thresholds, out, x)[0]
    z = [ceil(SECOND_START * y) for y in tau]
    start = [-a for a in _fired(thresholds, out, [0] * len(z), z)]  # S z
    c = _topple(thresholds, out, start)[0]
    return _descend(thresholds, out, c, sink_weights(thresholds, out))


def _descend(thresholds, out, c, beta):
    """x's stabilization e, from c = x - S u, stable, with u >= u* (x's
    odometer), on an undirected system or its fold with burning
    configuration beta.

    Each round runs one Dhar pass (`_spread`) on c + beta and untopples
    (c += S d) by d_v = ceil(-c_v / t_v) on each orbit with negative
    grains and d_v = 1 on each other orbit the pass leaves unburnt.
    Both keep u - d >= u*, with e = x - S u*:
      - c_v - e_v = sum_w out[w][v] (u_w - u*_w) - t_v (u_v - u*_v) >=
        -t_v (u_v - u*_v), so c_v < 0 makes u_v - u*_v >= -c_v / t_v;
      - an unburnt set A has c_v + beta_v + (what A's complement gives
        v) < t_v at each v of A.  If B, A's orbits with u_v = u*_v, were
        not empty, e would be c less at least what A - B gives there, so
        B would hold back the burning of e, which is recurrent.
    The untoppled c stays stable, and the sum of u falls every round,
    so the rounds end, at a stable c >= 0 whose pass burns everything:
    a recurrent configuration in the class of x, which is e.
    """
    while True:
        grains = [x + b for x, b in zip(c, beta)]
        burnt = [a >= t for a, t in zip(grains, thresholds)]
        _spread(thresholds, out, grains, burnt, [v for v, b in enumerate(burnt) if b])
        back = [max(-(x // t), not b) for x, t, b in zip(c, thresholds, burnt)]
        if not any(back):
            return tuple(c)
        c = _fired(thresholds, out, c, [-k for k in back])


def stabilize(g, c):
    """Stabilize c, returning (stable config, firing vector)."""
    if len(c) != g.vertex_count:
        raise ValueError("configuration has wrong length")
    if any(x < 0 for x in c):
        raise ValueError("configuration must be non-negative")
    return _topple(g.out_degree, g.out, c)


def is_stable(g, c):
    if len(c) != g.vertex_count:
        raise ValueError("configuration has wrong length")
    return all(x < d for x, d in zip(c, g.out_degree))


def is_recurrent(g, c):
    """Dhar's burning test: one burning pass (`_burns`) on c plus the
    burning configuration; undirected graphs only."""
    if not is_stable(g, c):
        raise ValueError("recurrence test requires a stable configuration")
    return _burns(g.out_degree, g.out, c, burning_config(g))


def stable_add(g, a, b):
    """(a + b) stabilized."""
    return stabilize(g, tuple(x + y for x, y in zip(a, b, strict=True)))[0]


def identity_config(g):
    """The recurrent representative of 0: (c_max + (c_max - (2 c_max)o))o.

    The general path; `symmetry.symmetric_identity` computes the same
    configuration on the orbit system of a group action."""
    return _identity(g.out_degree, g.out)


def enumerate_recurrents(g):
    """All recurrent configurations, in lexicographic order, by the
    up-set search of `_recurrents`: one Dhar burning pass per search
    node, at most k*R + 1 for k vertices and R recurrents, the values
    above each pass's floor taken untested since recurrents form an
    up-set; `SANDPILE_ENUM_CAP` bounds the number of stable
    configurations.  The passes hold on undirected graphs only, so
    directed ones are refused, as by `is_recurrent`."""
    return _recurrents(g.out_degree, g.out, burning_config(g))


def config_order(g, c):
    """Least k >= 1 with k*c in the lattice the firings span, S Z^n for
    g's firing system, solved in the numbering of `_breadth_first`."""
    if len(c) != g.vertex_count:
        raise ValueError("configuration has wrong length")
    return _order(*_breadth_first(_system_rows(g.out_degree, g.out), c))


def _breadth_first(rows, c):
    """The matrix with sparse rows `rows` (row i as {column k: entry},
    as `graphs._system_rows` gives S), made dense, and the vector c, with
    the unknowns renumbered breadth-first from 0 over the entries the
    rows hold, read both ways (Cuthill-McKee without its degree sort:
    neighbours by index, and each further component from its least
    index).  Every entry then joins two adjacent levels, so a grid gets
    the band of its shorter side however it is numbered.  Permuting
    rows, columns and c together keeps c's order against the matrix.
    """
    n = len(rows)
    nbrs = [set(row) for row in rows]
    for i, row in enumerate(rows):
        for k in row:
            nbrs[k].add(i)
    seen, perm, done = [False] * n, [], 0
    for start in range(n):
        if not seen[start]:
            seen[start] = True
            perm.append(start)
        while done < len(perm):
            for w in sorted(nbrs[perm[done]]):
                if not seen[w]:
                    seen[w] = True
                    perm.append(w)
            done += 1
    return [[rows[i].get(k, 0) for k in perm] for i in perm], [c[i] for i in perm]


def _order(m, c):
    """Least k >= 1 with k*c in M Z^n, for a nonsingular integer matrix
    M.  With det = det(M) and y = det * M^-1 c the integer Cramer
    numerators, it is |det| / gcd(det, y)."""
    det, y = solve_int(m, list(c))
    return abs(det) // gcd(det, *y)
