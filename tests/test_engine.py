import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sandpiles import (
    SandpileGraph,
    burning_config,
    config_order,
    d_family,
    enumerate_recurrents,
    grid_fold,
    grid_sandpile,
    identity_config,
    is_recurrent,
    max_stable,
    p_graph,
    reduced_laplacian,
    stabilize,
    stable_add,
)
from sandpiles.engine import (
    _burns,
    _fired,
    _floor,
    _recurrents,
    _topple,
    is_stable,
    sink_weights,
)
from sandpiles.errors import SizeCapError
from sandpiles.linalg import det_int

from conftest import TRIANGLE_RECURRENTS, burns_by_toppling, recurrents_by_filter


def naive_topple(thresholds, out, c, rng):
    """Fire one unstable vertex at a time in a random order (the oracle
    for the batched work-queue kernel)."""
    amts = list(c)
    fire = [0] * len(amts)
    while True:
        unstable = [v for v, t in enumerate(thresholds) if amts[v] >= t]
        if not unstable:
            return tuple(amts), tuple(fire)
        v = rng.choice(unstable)
        amts[v] -= thresholds[v]
        fire[v] += 1
        for w, wt in out[v].items():
            amts[w] += wt


def naive_stabilize(g, c, rng):
    return naive_topple(g.out_degree, g.out, c, rng)


@st.composite
def firing_systems(draw):
    """A dissipative firing system whose vertices may feed themselves,
    as the orbits of a folded system do, and a configuration on it."""
    n = draw(st.integers(1, 4))
    thresholds = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    out = []
    for t in thresholds:
        gains = draw(st.lists(st.integers(0, t - 1), min_size=n, max_size=n))
        while sum(gains) >= t:  # each firing loses at least one grain
            gains[gains.index(max(gains))] -= 1
        out.append({w: x for w, x in enumerate(gains) if x})
    c = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    return thresholds, out, c


@given(st.lists(st.integers(0, 12), min_size=6, max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_stabilize_is_order_independent(c, seed):
    g = grid_sandpile(2, 3)
    expect = naive_stabilize(g, c, random.Random(seed))
    assert stabilize(g, tuple(c)) == expect


@given(firing_systems(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_topple_with_self_gains_is_order_independent(system, seed):
    # batches of k = c_v // threshold_v firings stay legal, and a vertex
    # that feeds itself is queued again while it is still unstable
    thresholds, out, c = system
    expect = naive_topple(thresholds, out, c, random.Random(seed))
    assert _topple(thresholds, out, c) == expect


@st.composite
def grid_fold_systems(draw):
    """The Klein or D4 fold of a grid up to 8 x 8 and a configuration on it."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    group = draw(st.sampled_from(["klein", "d4"] if rows == cols else ["klein"]))
    thresholds, out = grid_fold(rows, cols, group)[0]
    c = draw(st.lists(st.integers(0, 30), min_size=len(thresholds),
                      max_size=len(thresholds)))
    return thresholds, out, c


@given(st.one_of(firing_systems(), grid_fold_systems()), st.data())
@settings(max_examples=200, deadline=None)
def test_topple_from_a_start_below_the_odometer(system, data):
    # least action: pre-firing any 0 <= u0 <= the odometer, which may
    # leave negative entries, keeps the stable result, and the firings
    # that remain are the odometer less u0
    thresholds, out, c = system
    stable, odometer = _topple(thresholds, out, c)
    u0 = [data.draw(st.integers(0, k)) for k in odometer]
    assert _topple(thresholds, out, _fired(thresholds, out, c, u0)) == (
        stable, tuple(k - u for k, u in zip(odometer, u0)))


def test_topple_refires_a_vertex_that_feeds_itself():
    # threshold 4 and 3 grains back per firing: each firing loses one
    # grain, so 9 grains take 6 firings (the first batch of 2 leaves 7)
    assert _topple([4], [{0: 3}], [9]) == ((3,), (6,))


def test_stabilize_fixed_point(triangle):
    c = (2, 1, 0)
    assert stabilize(triangle, c) == (c, (0, 0, 0))


def test_stabilize_rejects_negative(triangle):
    with pytest.raises(ValueError):
        stabilize(triangle, (-1, 0, 0))


def test_stabilize_rejects_wrong_length(triangle):
    for c in [(1, 1), (1, 1, 1, 1)]:
        with pytest.raises(ValueError, match="wrong length"):
            stabilize(triangle, c)


def test_burning_config(triangle):
    assert burning_config(triangle) == (1, 1, 0)


def test_triangle_recurrents(triangle):
    assert set(enumerate_recurrents(triangle)) == TRIANGLE_RECURRENTS


@st.composite
def undirected_graphs(draw):
    """A small undirected graph with edge and sink weights 0..2 in which
    every vertex reaches the sink."""
    n = draw(st.integers(1, 5))
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            wt = draw(st.integers(0, 2))
            edges[(u, v)] = edges[(v, u)] = wt
    sink = {u: draw(st.integers(0, 2)) for u in range(n)}
    try:
        return SandpileGraph(range(n), edges, sink)
    except ValueError:  # a vertex without a path to the sink
        assume(False)


@given(undirected_graphs())
@settings(max_examples=150, deadline=None)
def test_up_set_search_matches_the_filter(g):
    system = (g.out_degree, g.out, burning_config(g))
    found = _recurrents(*system)
    assert found == recurrents_by_filter(*system)
    assert enumerate_recurrents(g) == found
    assert len(found) == det_int(reduced_laplacian(g))


# The Klein and D4 folds of the grids up to 4 x 4, and the triangle's
# u <-> v fold, whose orbit feeds its own representative
BURNING_FOLDS = ([grid_fold(rows, cols, "klein")[0]
                  for rows in range(1, 5) for cols in range(1, 5)]
                 + [grid_fold(n, n, "d4")[0] for n in range(1, 5)]
                 + [([3, 2], [{0: 1, 1: 2}, {0: 1}])])


@st.composite
def burning_systems(draw):
    """An undirected graph's system or a fold, with its burning
    configuration."""
    if draw(st.booleans()):
        g = draw(undirected_graphs())
        return g.out_degree, g.out, burning_config(g)
    thresholds, out = draw(st.sampled_from(BURNING_FOLDS))
    return thresholds, out, sink_weights(thresholds, out)


@given(burning_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_floor_is_the_least_value_that_burns(system, data):
    thresholds, out, beta = system
    c = [data.draw(st.integers(0, t - 1)) for t in thresholds]
    j = data.draw(st.integers(0, len(c) - 1))
    floor = _floor(thresholds, out, c, beta, j)

    def burns_at(x):
        return burns_by_toppling(thresholds, out, c[:j] + [x] + c[j + 1:], beta)

    assert (floor is None) == (not burns_at(thresholds[j] - 1))
    if floor is not None:
        assert burns_at(floor)
        assert floor == 0 or not burns_at(floor - 1)


@given(burning_systems())
@example(([], [], []))
@settings(max_examples=150, deadline=None)
def test_burning_pass_is_the_toppling_test(system):
    thresholds, out, beta = system
    for c in product(*(range(t) for t in thresholds)):
        assert _burns(thresholds, out, c, beta) == burns_by_toppling(thresholds, out, c, beta)


@given(undirected_graphs())
@example(SandpileGraph([], {}, {}))
@settings(max_examples=150, deadline=None)
def test_is_recurrent_is_the_toppling_test(g):
    beta = burning_config(g)
    for c in product(*(range(d) for d in g.out_degree)):
        assert is_recurrent(g, c) == burns_by_toppling(g.out_degree, g.out, c, beta)


def test_up_set_search_on_a_deep_star():
    # 1,501 coordinates but a box of 1,501 configurations: the walk
    # goes 1,500 levels deep
    leaves = range(1, 1501)
    g = SandpileGraph(range(1501), {e: 1 for v in leaves for e in ((0, v), (v, 0))},
                      {0: 1})
    assert enumerate_recurrents(g) == [(1500,) + (0,) * 1500]


def test_up_set_search_on_the_empty_system():
    assert _recurrents([], [], []) == recurrents_by_filter([], [], []) == [()]
    assert enumerate_recurrents(SandpileGraph([], {}, {})) == [()]


def test_enumerate_recurrents_refuses_directed_graphs():
    with pytest.raises(ValueError, match="undirected"):
        enumerate_recurrents(d_family("Dprime", 1, 2))


def test_triangle_identity(triangle):
    assert identity_config(triangle) == (2, 2, 0)


def test_identity_is_neutral_on_recurrents(triangle):
    e = identity_config(triangle)
    for c in TRIANGLE_RECURRENTS:
        assert stable_add(triangle, c, e) == c


def test_identity_idempotent_small_grids():
    for rows, cols in [(2, 2), (2, 3), (3, 3), (1, 4)]:
        g = grid_sandpile(rows, cols)
        e = identity_config(g)
        assert is_recurrent(g, e)
        assert stable_add(g, e, e) == e


def test_recurrent_count_matches_determinant():
    for g in [grid_sandpile(1, 3), grid_sandpile(2, 2), p_graph(2)]:
        assert len(enumerate_recurrents(g)) == det_int(reduced_laplacian(g))


def test_group_law_associative_commutative(triangle):
    recs = sorted(TRIANGLE_RECURRENTS)
    for a in recs:
        for b in recs:
            assert stable_add(triangle, a, b) == stable_add(triangle, b, a)
            for c in recs[:3]:
                lhs = stable_add(triangle, stable_add(triangle, a, b), c)
                rhs = stable_add(triangle, a, stable_add(triangle, b, c))
                assert lhs == rhs


def test_max_stable_recurrent():
    g = grid_sandpile(3, 3)
    assert is_recurrent(g, max_stable(g))


def test_is_recurrent_requires_stable(triangle):
    with pytest.raises(ValueError):
        is_recurrent(triangle, (5, 0, 0))


def test_is_recurrent_rejects_wrong_length():
    for c in [(3, 3), (0, 0, 0, 0, 5)]:
        with pytest.raises(ValueError, match="wrong length"):
            is_recurrent(grid_sandpile(2, 2), c)


def test_stable_add_rejects_unequal_lengths():
    g = grid_sandpile(2, 2)
    for a, b in [((1, 1, 1, 1, 9), (0, 0, 0, 0)), ((0, 0, 0, 0), (1, 1, 1, 1, 9))]:
        with pytest.raises(ValueError):
            stable_add(g, a, b)


def test_config_order_divides_group_order(triangle):
    # group has order 8; element orders must divide it
    for c in TRIANGLE_RECURRENTS:
        assert 8 % config_order(triangle, c) == 0


def test_config_order_known_values():
    assert config_order(grid_sandpile(2, 2), (2, 2, 2, 2)) == 1
    assert config_order(grid_sandpile(2, 2), (1, 1, 1, 1)) == 2
    assert config_order(grid_sandpile(2, 3), (1,) * 6) == 7


def test_config_order_matches_repeated_addition(triangle):
    # the least k with (e + k*c) stabilized back at the identity e
    for g in (triangle, grid_sandpile(2, 2)):
        e = identity_config(g)
        for c in enumerate_recurrents(g):
            acc, k = stable_add(g, e, c), 1
            while acc != e:
                acc, k = stable_add(g, acc, c), k + 1
            assert config_order(g, c) == k


def test_config_order_rejects_wrong_length():
    for c in [(1, 1, 1, 1, 7), (1, 1, 1)]:
        with pytest.raises(ValueError, match="wrong length"):
            config_order(grid_sandpile(2, 2), c)


def test_config_order_directed_graph():
    # firing subtracts rows of L, so the order is taken in Z^n / L^T Z^n;
    # solving against L instead gives 8, 8, 8, 16 here
    g = d_family("Ddoubleprime", 2, 2)
    e = identity_config(g)
    orders = []
    for v in range(g.vertex_count):
        unit = tuple(int(w == v) for w in range(g.vertex_count))
        acc, k = stable_add(g, e, unit), 1
        while acc != e:
            acc, k = stable_add(g, acc, unit), k + 1
        assert config_order(g, unit) == k
        orders.append(k)
    assert orders == [16, 8, 8, 8]


def test_enumeration_cap(monkeypatch):
    def unused(*args):
        raise AssertionError("a burning test ran")

    monkeypatch.setenv("SANDPILE_ENUM_CAP", "10")
    monkeypatch.setattr("sandpiles.engine._burns", unused)
    monkeypatch.setattr("sandpiles.engine._floor", unused)
    with pytest.raises(SizeCapError):
        enumerate_recurrents(grid_sandpile(2, 2))


def test_enumeration_cap_on_a_huge_box_is_printable(monkeypatch):
    """4^8000 has 4817 digits, past the int -> str limit; the refusal
    names the coordinates instead of the product."""
    def unused(*args):
        raise AssertionError("a burning test ran")

    monkeypatch.setattr("sandpiles.engine._burns", unused)
    monkeypatch.setattr("sandpiles.engine._floor", unused)
    k = 8000
    with pytest.raises(SizeCapError) as exc:
        _recurrents([4] * k, [{} for _ in range(k)], [4] * k)
    assert str(exc.value) == "the stable box on 8000 coordinates exceeds cap 10000000"


def test_stable_configs_stay_stable_under_identity_add():
    g = grid_sandpile(2, 2)
    e = identity_config(g)
    assert is_stable(g, e)
