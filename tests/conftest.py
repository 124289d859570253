from itertools import product

import pytest

from sandpiles import SandpileGraph, GroupAction
from sandpiles.engine import _burns


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


def recurrents_by_filter(thresholds, out, beta):
    """The brute-force oracle for `engine._recurrents`: one burning test
    per configuration of the stable box, in lexicographic order."""
    return [c for c in product(*(range(t) for t in thresholds))
            if _burns(thresholds, out, c, beta)]
