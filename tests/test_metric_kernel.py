"""The integer metric kernel: the equicontinuity modulus against the pair
scan it replaced, and the memory that metric scans keep."""

import gc
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.analysis import equicontinuity_modulus, is_proximal, modulus_curve
from fuzzdyn.fuzzy import LevelGrid, fuzzy_lift_system
from fuzzdyn.hyperspace import lift_system
from fuzzdyn.spaces import (MetricSpace, SystemMap, make_grid_interval_map,
                            make_rotation)

from helpers import brute_equicontinuity_modulus, taxi_space

F = Fraction

MIB = 2 ** 20


@st.composite
def systems(draw, max_points=5):
    """A random map on a metric, a pseudometric (repeated coordinates) or
    an arbitrary table (asymmetric, zero or nonzero diagonal)."""
    n = draw(st.integers(1, max_points))
    kind = draw(st.sampled_from(["metric", "pseudometric", "table"]))
    if kind == "table":
        row = st.lists(st.integers(0, 6), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=n, max_size=n))
        space = MetricSpace(range(n), matrix=[[F(v, 3) for v in r]
                                              for r in rows])
    else:
        cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              min_size=n, max_size=n,
                              unique=kind == "metric"))
        space = taxi_space([(F(x, 2), F(y, 3)) for x, y in cells])
    table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return SystemMap(space, table, label=kind)


def eps_choices(space):
    """Every attained base distance, the midpoints between them and a value
    above the diameter; lift distances are base distances too."""
    values = sorted({space.d_by_index(i, j) for i in range(len(space))
                     for j in range(len(space))} | {F(0)})
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return [v for v in values + mids if v > 0] + [values[-1] + F(1, 7)]


@settings(max_examples=80, deadline=None)
@given(systems(), st.integers(1, 2), st.data())
def test_modulus_matches_the_pair_scan(sys, m, data):
    eps = data.draw(st.sampled_from(eps_choices(sys.space)))
    levels = [sys, lift_system(sys)]
    # F0 at five points and m = 2 has 242 states; the brute scan on it
    # takes seconds, so the fuzzy level stops at 80 states there
    if (m + 1) ** len(sys.space) <= 81 or m == 1:
        levels.append(fuzzy_lift_system(sys, LevelGrid(m), "nonempty"))
    for level in levels:
        assert equicontinuity_modulus(level, eps) == \
            brute_equicontinuity_modulus(level, eps), level.label


@settings(max_examples=80, deadline=None)
@given(systems(max_points=6))
def test_modulus_curve_matches_each_modulus(sys):
    expected = [(eps, F(dict(equicontinuity_modulus(sys, eps).witnesses)
                        ["delta"]))
                for eps in sys.space.distance_values() if eps > 0]
    assert modulus_curve(sys) == expected


def test_modulus_on_a_fuzzy_lift_stays_small():
    """The pair cache held 43 MiB here: 264,628 Fraction distances."""
    f0 = fuzzy_lift_system(make_rotation(6, 1), LevelGrid(2), "nonempty")
    gc.collect()
    tracemalloc.start()
    try:
        v = equicontinuity_modulus(f0, F(1, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.holds and peak < 4 * MIB


def test_scans_keep_no_per_pair_state():
    """A scan that reads every pair at every step leaves behind at most
    the per-state cut masks of the fuzzy metric, far less than one
    Fraction (56 bytes) per pair."""
    assert "_cache" not in MetricSpace.__slots__
    base = make_rotation(6, 1)
    for lift in (lift_system(base),
                 fuzzy_lift_system(make_rotation(4, 1), LevelGrid(2),
                                   "nonempty")):
        states = len(lift.space)
        lift.eventual_period()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            # above the diameter every pair is near, and none violates
            v = equicontinuity_modulus(lift, F(2))
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.witnesses[1] == ("delta", str(lift.space.diam))
        pairs = states * (states - 1) // 2
        assert after - before < 128 * states < 56 * pairs


def test_proximality_never_indexes_points(monkeypatch):
    """Both proximality routes walk point indices, never point ids."""
    def refuse(self, p):
        raise AssertionError("point index lookup")

    half = make_grid_interval_map("half", 4)
    small = lift_system(make_rotation(3, 1))             # pairwise route
    large = fuzzy_lift_system(half, LevelGrid(2), "all")  # collapse route
    expected = [is_proximal(small), is_proximal(large)]
    monkeypatch.setattr(MetricSpace, "index", refuse)
    assert [is_proximal(small), is_proximal(large)] == expected
    assert expected[0].fails and expected[1].fails
