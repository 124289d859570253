"""Core sandpile dynamics: stabilization, recurrence, identity, orders."""

import os
from collections import deque
from itertools import product
from math import gcd, prod

from .errors import SizeCapError
from .graphs import reduced_laplacian
from .linalg import solve_int

DEFAULT_ENUM_CAP = 10**7


def _enum_cap():
    return int(os.environ.get("SANDPILE_ENUM_CAP", DEFAULT_ENUM_CAP))


def max_stable(g):
    """c_max: out-degree minus one everywhere."""
    return tuple(d - 1 for d in g.out_degree)


def burning_config(g):
    """One grain per unit of sink-edge weight (undirected graphs only)."""
    if not g.undirected:
        raise ValueError("burning configuration requires an undirected graph")
    return tuple(g.sink_weight)


def stabilize(g, c):
    """Stabilize c, returning (stable config, firing vector).

    Uses a work queue with batch firing: an unstable vertex fires
    floor(c_v / outdeg_v) times at once.  The result is independent of
    the processing order (abelian property); batching is purely speed.
    """
    n = g.vertex_count
    if len(c) != n:
        raise ValueError("configuration has wrong length")
    if any(x < 0 for x in c):
        raise ValueError("configuration must be non-negative")
    amts = list(c)
    deg = g.out_degree
    out = g.out
    fire = [0] * n
    queue = deque(v for v in range(n) if amts[v] >= deg[v])
    queued = [amts[v] >= deg[v] for v in range(n)]
    while queue:
        v = queue.popleft()
        queued[v] = False
        k = amts[v] // deg[v]
        if k <= 0:
            continue
        fire[v] += k
        amts[v] -= k * deg[v]
        for w, wt in out[v].items():
            amts[w] += k * wt
            if amts[w] >= deg[w] and not queued[w]:
                queued[w] = True
                queue.append(w)
    return tuple(amts), tuple(fire)


def is_stable(g, c):
    return all(x < d for x, d in zip(c, g.out_degree))


def is_recurrent(g, c):
    """Burning test: add the burning configuration and stabilize; c is
    recurrent iff the result is c again with every vertex having fired.
    """
    if not g.undirected:
        raise ValueError("recurrence test is defined for undirected graphs")
    if not is_stable(g, c):
        raise ValueError("recurrence test requires a stable configuration")
    b = burning_config(g)
    res, fire = stabilize(g, tuple(x + y for x, y in zip(c, b)))
    return res == tuple(c) and all(f >= 1 for f in fire)


def stable_add(g, a, b):
    """(a + b) stabilized."""
    return stabilize(g, tuple(x + y for x, y in zip(a, b)))[0]


def identity_config(g):
    """The recurrent representative of 0: (c_max + (c_max - (2 c_max)o))o."""
    cmax = max_stable(g)
    twice = tuple(2 * x for x in cmax)
    stab = stabilize(g, twice)[0]
    leftover = tuple(t - s for t, s in zip(twice, stab))
    return stabilize(g, leftover)[0]


def enumerate_recurrents(g):
    """All recurrent configurations, by exhaustive burning tests over the
    stable configurations.  Subject to the enumeration cap."""
    total = prod(g.out_degree)
    if total > _enum_cap():
        raise SizeCapError(
            f"{total} stable configurations exceeds cap {_enum_cap()}"
        )
    return [
        c
        for c in product(*(range(d) for d in g.out_degree))
        if is_recurrent(g, c)
    ]


def config_order(g, c):
    """Least k >= 1 with k*c in the lattice the firings span.

    Firing v subtracts row v of the reduced Laplacian L, so that lattice
    is L^T Z^n (L^T = L on undirected graphs).  With det = det(L) and
    y = det * L^-T c the integer Cramer numerators, the order is
    |det| / gcd(det, y).
    """
    lap_t = list(zip(*reduced_laplacian(g)))
    det, y = solve_int(lap_t, list(c))
    return abs(det) // gcd(det, *y)
