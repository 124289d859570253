from itertools import product

import pytest

from sandpiles import SandpileGraph, GroupAction
from sandpiles.engine import _topple


@pytest.fixture
def triangle():
    """Three mutually adjacent vertices u, v, w; u and v also share a
    unit edge with the sink.  Small enough to check everything by hand."""
    return SandpileGraph(
        ["u", "v", "w"],
        {("u", "v"): 1, ("v", "u"): 1,
         ("u", "w"): 1, ("w", "u"): 1,
         ("v", "w"): 1, ("w", "v"): 1},
        {"u": 1, "v": 1},
    )


@pytest.fixture
def triangle_swap():
    """The u <-> v swap, which preserves the triangle's weights."""
    return GroupAction([(0, 1, 2), (1, 0, 2)])


TRIANGLE_RECURRENTS = {
    (0, 2, 1), (1, 2, 0), (1, 2, 1), (2, 0, 1),
    (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1),
}


def burns_by_toppling(thresholds, out, c, beta):
    """The toppling burning test, the oracle for `engine._burns` and
    `engine._floor`: c + beta stabilizes to c with every vertex having
    fired."""
    res, fire = _topple(thresholds, out, [x + b for x, b in zip(c, beta)])
    return res == tuple(c) and all(f >= 1 for f in fire)


def recurrents_by_filter(thresholds, out, beta):
    """The brute-force oracle for `engine._recurrents`: one toppling
    burning test per configuration of the stable box, in lexicographic
    order."""
    return [c for c in product(*(range(t) for t in thresholds))
            if burns_by_toppling(thresholds, out, c, beta)]


def assembled(a, b, c, m):
    """The block-tridiagonal matrix itself: diagonal (A, ..., A, B),
    couplings -I, and -C at block (m, m-1)."""
    n = len(a)
    big = [[0] * (m * n) for _ in range(m * n)]
    for k in range(m):
        for i in range(n):
            for j in range(n):
                big[k * n + i][k * n + j] = (b if k == m - 1 else a)[i][j]
                if k and i == j:
                    big[k * n + i][(k - 1) * n + j] = -1
                    big[(k - 1) * n + i][k * n + j] = -1
    for i in range(n if m > 1 else 0):
        for j in range(n):
            big[(m - 1) * n + i][(m - 2) * n + j] = -c[i][j]
    return big
