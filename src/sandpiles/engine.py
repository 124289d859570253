"""Core sandpile dynamics: stabilization, recurrence, identity, orders.

One toppling kernel, `_topple`, runs on any firing system: a threshold
per vertex and, per vertex, the grains each target gains when it fires.
A sandpile graph is the system (out_degree, out); `symmetry` builds the
folded system of a group action, whose vertices are orbits, and runs the
same kernel, burning test and identity formula on it.

The identity takes two stabilizations.  Given a float estimate of the
torsion S^-1 1 (S the system's firing matrix), `_identity` starts each
one pre-fired near its odometer, so toppling only finishes the
avalanche, and keeps the result only if one burning test certifies it;
`symmetry.grid_identity` passes such an estimate for grids.
"""

import os
from collections import deque
from math import floor, gcd

from .errors import SizeCapError
from .graphs import reduced_laplacian
from .linalg import solve_int

DEFAULT_ENUM_CAP = 10**7

# Step 1 of `_identity` pre-fires FIRST_START * tau on 2 c_max.  On a
# grid fold (every threshold 4) its odometer is S^-1 (6 - q) for
# q = stab(2 c_max), and the mean of q is about 2.2-2.3 at 16^2-96^2, so
# the odometer is near 3.7-3.8 tau; the stable q <= 3 makes 3 tau a lower
# bound.  A start past the odometer in places is still exact (see
# `_identity`); at 48 x 48, step 1 then fires 384 times against 18,343
# from 3 tau and 97,783 from zero.
FIRST_START = 3.8


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
    order (abelian property), so batching is purely speed.

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
        if k <= 0:
            continue
        fire[v] += k
        amts[v] -= k * thresholds[v]
        for w, wt in out[v].items():
            amts[w] += k * wt
            if amts[w] >= thresholds[w] and not queued[w]:
                queued[w] = True
                queue.append(w)
    return tuple(amts), tuple(fire)


def _burns(thresholds, out, c, beta):
    """Burning test on a firing system: c + beta stabilizes to c with
    every vertex having fired."""
    res, fire = _topple(thresholds, out, [x + b for x, b in zip(c, beta)])
    return res == tuple(c) and all(f >= 1 for f in fire)


def _check_box(thresholds):
    """Raise SizeCapError if the stable box, prod(thresholds), exceeds
    `SANDPILE_ENUM_CAP`; the product stops growing once it passes."""
    cap, total = int(os.environ.get("SANDPILE_ENUM_CAP", DEFAULT_ENUM_CAP)), 1
    for t in thresholds:
        total *= t
        if total > cap:
            raise SizeCapError(f"the stable box on {len(thresholds)} coordinates "
                               f"exceeds cap {cap}")


def _recurrents(thresholds, out, beta):
    """Every configuration of the stable box (0 <= c_v < thresholds[v])
    that passes the burning test, in lexicographic order.

    Recurrents form an up-set of the box (Dhar): a stable configuration
    >= a recurrent one is recurrent.  So a prefix has a recurrent
    completion iff it burns with every later coordinate at its maximum
    t - 1, and along one coordinate the values that burn form a top
    interval.  The walk lowers each coordinate from t - 1 until the next
    value fails, emits c, then raises the last coordinate below its
    maximum and resets the later ones.  Each result has passed its own
    test, and k coordinates and R results take at most k*R + 1 tests:
    each success is a distinct search node, whose scan fails at most once.
    `SANDPILE_ENUM_CAP` bounds the box, checked before any test
    (`_check_box`).
    """
    _check_box(thresholds)
    top = [t - 1 for t in thresholds]
    c = list(top)
    if not _burns(thresholds, out, c, beta):
        return []
    found, j = [], 0
    while True:
        for j in range(j, len(c)):
            while c[j] > 0:
                c[j] -= 1
                if not _burns(thresholds, out, c, beta):
                    c[j] += 1
                    break
        found.append(tuple(c))
        j = len(c) - 1
        while j >= 0 and c[j] == top[j]:
            j -= 1
        if j < 0:
            return found
        c[j] += 1
        c[j + 1:] = top[j + 1:]
        j += 1


def _fired(thresholds, out, c, u):
    """c - S u: c after firing each vertex v u[v] times, legal or not."""
    amts = [x - t * k for x, t, k in zip(c, thresholds, u)]
    for v, k in enumerate(u):
        if k:
            for w, wt in out[v].items():
                amts[w] += k * wt
    return amts


def sink_weights(thresholds, out):
    """Each threshold less what every vertex gives it when it fires (S 1):
    on the fold of an undirected graph, the folded burning configuration."""
    beta = list(thresholds)
    for gains in out:
        for w, wt in gains.items():
            beta[w] -= wt
    return beta


def _identity(thresholds, out, tau=None):
    """(c_max + (c_max - (2 c_max)o))o on a firing system.

    With tau, a float estimate of the torsion S^-1 1, both stabilizations
    start pre-fired.  Step 1 fires v0 = floor(FIRST_START * tau) on
    2 c_max and topples to a stable q = 2 c_max - S V, V being v0 plus
    the firings; for any integer v0, x = 2 c_max - q is in the class of
    0 and x >= c_max, so stab(x) is the identity e.  Step 2 fires
    u2 = max(0, floor(V - top * tau) - 1) on x, top = max(thresholds) - 1:
    e <= top makes S^-1 e <= top * tau (S^-1 >= 0), so for exact tau
    0 <= u2 <= V - S^-1 e, which is x's odometer, and toppling ends at e
    by least action.  tau is a float, so that result is kept only if it
    is non-negative and passes one burning test, since e is the only
    recurrent configuration in the class of 0; otherwise x is stabilized
    from zero.  Without tau, step 1 is the same with v0 = 0, and x is
    stabilized from zero as in that fallback.
    """
    twice = [2 * (t - 1) for t in thresholds]
    v0 = [0] * len(twice) if tau is None else [floor(FIRST_START * y) for y in tau]
    stab, fire = _topple(thresholds, out, _fired(thresholds, out, twice, v0))
    x = [t - s for t, s in zip(twice, stab)]
    if tau is not None:
        top = max(thresholds) - 1
        u2 = [max(0, floor(v + f - top * y) - 1) for v, f, y in zip(v0, fire, tau)]
        e = _topple(thresholds, out, _fired(thresholds, out, x, u2))[0]
        if min(e) >= 0 and _burns(thresholds, out, e, sink_weights(thresholds, out)):
            return e
    return _topple(thresholds, out, x)[0]


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
    """Burning test: add the burning configuration and stabilize; c is
    recurrent iff the result is c again with every vertex having fired.
    """
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
    up-set search of `_recurrents`: its burning tests number at most
    k*R + 1 for k vertices and R recurrents, not one per stable
    configuration, and `SANDPILE_ENUM_CAP` bounds the number of stable
    configurations.  Directed graphs are refused, as by `is_recurrent`."""
    return _recurrents(g.out_degree, g.out, burning_config(g))


def config_order(g, c):
    """Least k >= 1 with k*c in the lattice the firings span.

    Firing v subtracts row v of the reduced Laplacian L, so that lattice
    is L^T Z^n (L^T = L on undirected graphs).
    """
    return _order(list(zip(*reduced_laplacian(g))), c)


def _order(m, c):
    """Least k >= 1 with k*c in M Z^n, for a nonsingular integer matrix
    M.  With det = det(M) and y = det * M^-1 c the integer Cramer
    numerators, it is |det| / gcd(det, y)."""
    det, y = solve_int(m, list(c))
    return abs(det) // gcd(det, *y)
