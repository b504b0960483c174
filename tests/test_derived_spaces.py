"""Derived state spaces (products, subset lifts, fuzzy lifts) against the
definitions: every point distinct, every transition equal to the pointwise
step of the decoded state, every distance equal to a brute-force oracle,
and a known gap equal to the least distance between distinct states."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzdyn.hyperspace as hyperspace
from fuzzdyn.fuzzy import (FuzzySet, GFunction, LevelGrid, _code, _code_steps,
                           _g_levels, _renderer, enumerate_fuzzy,
                           fuzzy_lift_system)
from fuzzdyn.hyperspace import MASK_PAIR_MAX_POINTS, lift_system
from fuzzdyn.spaces import SystemMap, circle_space, iterate, product_system

from helpers import (apply, brute_fuzzy_states, brute_fuzzy_step,
                     brute_hausdorff, brute_levelwise, brute_product_distance,
                     image_points, taxi_space)

F = Fraction

#: distance pairs sampled per derived space
PAIRS = 40


@st.composite
def table_systems(draw, max_points=5):
    n = draw(st.integers(1, max_points))
    cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=n, max_size=n, unique=True))
    coords = [(F(x, 2), F(y, 3)) for x, y in cells]
    table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return SystemMap(taxi_space(coords), table, label="random")


@st.composite
def constraints(draw, grid):
    kind = draw(st.sampled_from(["all", "nonempty", "eq", "ge"]))
    if kind in ("eq", "ge"):
        return (kind, draw(st.sampled_from(grid.levels)))
    return kind


@st.composite
def gfunctions(draw, grid):
    inner = sorted(draw(st.lists(st.sampled_from(grid.with_zero()),
                                 min_size=grid.m - 1, max_size=grid.m - 1)))
    keys = grid.with_zero()
    return GFunction(grid, dict(zip(keys, [F(0)] + inner + [F(1)])))


def sampled_pairs(rng, size):
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(PAIRS)]


def assert_distinct(space):
    assert len(set(space.points)) == len(space.points)


@settings(max_examples=40, deadline=None)
@given(table_systems(), st.randoms(use_true_random=False))
def test_subset_lift_matches_definitions(sys, rng):
    lift = lift_system(sys)
    pts = lift.space.points
    assert_distinct(lift.space)
    n = len(sys.space.points)
    assert len(pts) == 2 ** n - 1
    for i, s in enumerate(pts):
        assert pts[lift.table[i]] == image_points(sys, s)
    for i, j in sampled_pairs(rng, len(pts)):
        assert lift.space.d_by_index(i, j) == \
            brute_hausdorff(sys.space, pts[i], pts[j])


def assert_distorted_columns(sys, grid, g):
    """The column route of the code kernel under a grade distortion g steps
    every code as the definition steps its grades."""
    n, radix = len(sys.space.points), grid.m + 1
    images = _code_steps(n, radix, sys.preimages(), _g_levels(grid, g))
    render = _renderer(n, radix, grid.with_zero())
    assert list(map(render, images)) == [
        brute_fuzzy_step(sys, FuzzySet(sys.space, grid, s), g).grades
        for s in brute_fuzzy_states(n, grid)]


@settings(max_examples=60, deadline=None)
@given(table_systems(), st.integers(1, 2), st.data())
def test_fuzzy_lift_matches_definitions(sys, m, data):
    grid = LevelGrid(m)
    constraint = data.draw(constraints(grid))
    family = list(enumerate_fuzzy(sys.space, grid, constraint))
    lift = fuzzy_lift_system(sys, grid, constraint)
    pts = lift.space.points
    assert_distinct(lift.space)
    assert tuple(pts) == tuple(a.grades for a in family)
    states = [FuzzySet(sys.space, grid, p) for p in pts]
    for i, a in enumerate(states):
        assert pts[lift.table[i]] == brute_fuzzy_step(sys, a).grades
    rng = data.draw(st.randoms(use_true_random=False))
    for i, j in sampled_pairs(rng, len(pts)):
        assert lift.space.d_by_index(i, j) == \
            brute_levelwise(states[i], states[j])
    assert_distorted_columns(sys, grid, data.draw(gfunctions(grid)))


@settings(max_examples=80, deadline=None)
@given(table_systems(max_points=6), st.integers(1, 3), st.data())
def test_batch_grade_step_matches_definition(sys, m, data):
    # random tables are often not onto, so some points have no preimage
    grid = LevelGrid(m)
    g = data.draw(st.none() | gfunctions(grid))
    n = len(sys.space.points)
    batch = data.draw(st.lists(st.tuples(*[st.integers(0, m)] * n),
                               max_size=50))
    images = _code_steps(n, m + 1, sys.preimages(), _g_levels(grid, g),
                         [_code(s, m + 1) for s in batch])
    levels = _renderer(n, m + 1, range(m + 1))
    values = grid.with_zero()
    assert list(map(levels, images)) == [
        tuple(int(v * m) for v in brute_fuzzy_step(
            sys, FuzzySet(sys.space, grid, [values[k] for k in s]), g).grades)
        for s in batch]


def every_constraint(grid):
    return (["all", "nonempty"]
            + [(kind, lam) for kind in ("eq", "ge") for lam in grid.levels])


@settings(max_examples=25, deadline=None)
@given(table_systems(), st.integers(1, 3), st.data())
def test_code_kernel_matches_brute_lift(sys, m, data):
    # the states and the step table of every slice against product-order
    # grade tuples stepped by the definition, and the column route of the
    # kernel under a grade distortion
    grid = LevelGrid(m)
    n = len(sys.space.points)
    for constraint in every_constraint(grid):
        states = brute_fuzzy_states(n, grid, constraint)
        index = {s: i for i, s in enumerate(states)}
        images = [brute_fuzzy_step(sys, FuzzySet(sys.space, grid, s)).grades
                  for s in states]
        lift = fuzzy_lift_system(sys, grid, constraint)
        assert tuple(lift.space.points) == tuple(states)
        assert list(lift.table) == [index[t] for t in images]
    assert_distorted_columns(sys, grid, data.draw(gfunctions(grid)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.data())
def test_rendered_points_index_like_a_tuple(n, m, data):
    """A lift's lazy points read like the tuple of its states: the fuzzy
    states in product order, and at m = 0 the subset lift's nonempty
    subsets in bitmask order."""
    sys = SystemMap(taxi_space([(F(i), F(0)) for i in range(n)]),
                    list(range(n)))
    pts = sys.space.points
    if m == 0:
        points = lift_system(sys).space.points
        states = tuple(frozenset(pts[i] for i in range(n) if mask >> i & 1)
                       for mask in range(1, 1 << n))
    else:
        grid = LevelGrid(m)
        constraint = data.draw(constraints(grid))
        points = fuzzy_lift_system(sys, grid, constraint).space.points
        states = tuple(brute_fuzzy_states(n, grid, constraint))
    assert len(points) == len(states)
    i = data.draw(st.integers(-len(states), len(states) - 1))
    assert points[i] == states[i]
    lo, hi = sorted(data.draw(st.tuples(st.integers(-9, 9),
                                        st.integers(-9, 9))))
    assert points[lo:hi] == states[lo:hi]
    assert list(reversed(points)) == list(reversed(states))
    with pytest.raises(IndexError):
        points[len(states)]


def assert_every_pair(space, brute):
    """dist_int is brute(i, j) * denom on every pair, the scan reader
    agrees with it, and a known gap is the least distinct-pair distance."""
    scan = space.scan_metric()
    pairs = list(itertools.product(range(len(space)), repeat=2))
    for i, j in pairs:
        assert space.dist_int(i, j) == brute(i, j) * space.denom == scan(i, j)
    if space.gap is not None:
        assert space.gap == min(space.dist_int(i, j)
                                for i, j in pairs if i != j)


@settings(max_examples=40, deadline=None)
@given(table_systems(max_points=3), st.integers(1, 2))
def test_every_pair_of_small_lifts(sys, m):
    grid = LevelGrid(m)
    lift = lift_system(sys)
    subsets = lift.space.points
    assert_every_pair(lift.space, lambda i, j: brute_hausdorff(
        sys.space, subsets[i], subsets[j]))
    fuzzy = fuzzy_lift_system(sys, grid, "all")
    for constraint in every_constraint(grid):
        space = fuzzy_lift_system(sys, grid, constraint).space
        states = [FuzzySet(sys.space, grid, p) for p in space.points]
        assert_every_pair(space, lambda i, j: brute_levelwise(
            states[i], states[j]))
    # over a metric of two or more points the gap is known
    for space in (lift.space, fuzzy.space):
        assert (space.gap is None) == (len(sys.space) == 1)


def test_a_low_slice_scans_its_empty_cuts():
    """A height slice below the grid's top has empty cuts above its level;
    its scan reader still agrees with the levelwise distance."""
    sys = SystemMap(circle_space(3), [1, 2, 2])
    grid = LevelGrid(3)
    for constraint in (("eq", Fraction(1, 3)), ("eq", Fraction(2, 3))):
        space = fuzzy_lift_system(sys, grid, constraint).space
        states = [FuzzySet(sys.space, grid, p) for p in space.points]
        assert_every_pair(space, lambda i, j: brute_levelwise(
            states[i], states[j]))


def test_lifts_above_the_pair_table_bound():
    """On a base above MASK_PAIR_MAX_POINTS the scan reader builds no pair
    table; both lifts still match the definitions on sampled pairs, the
    empty fuzzy state (index 0 of the "all" lift) included."""
    rng = random.Random(9)
    n = MASK_PAIR_MAX_POINTS + 1
    cells = rng.sample([(x, y) for x in range(5) for y in range(5)], n)
    sys = SystemMap(taxi_space([(F(x, 2), F(y, 3)) for x, y in cells]),
                    [rng.randrange(n) for _ in range(n)], label="taxi9")
    grid = LevelGrid(2)
    lift = lift_system(sys)
    fuzzy = fuzzy_lift_system(sys, grid, "all")
    subsets = lift.space.points
    values = grid.with_zero()
    for space, brute in (
            (lift.space, lambda i, j: brute_hausdorff(
                sys.space, subsets[i], subsets[j])),
            (fuzzy.space, lambda i, j: brute_levelwise(
                FuzzySet(sys.space, grid, fuzzy.space.points[i]),
                FuzzySet(sys.space, grid, fuzzy.space.points[j])))):
        with mock.patch.object(hyperspace, "_mask_pair_table",
                               side_effect=AssertionError("pair table")):
            scan = space.scan_metric()
        pairs = sampled_pairs(rng, len(space)) + [(0, rng.randrange(
            len(space))) for _ in range(5)]
        for i, j in pairs:
            assert space.dist_int(i, j) == brute(i, j) * space.denom \
                == scan(i, j)
    assert fuzzy.space.points[0] == (values[0],) * n


@st.composite
def factors(draw, max_factors=3):
    """One to ``max_factors`` (system, exponent) factors; a factor is a
    small table system or the subset lift of one, so lazy factor metrics
    appear."""
    out = []
    for _ in range(draw(st.integers(1, max_factors))):
        sys = draw(table_systems(max_points=3))
        if draw(st.booleans()):
            sys = lift_system(sys)
        out.append((sys, draw(st.integers(1, 3))))
    return out


@settings(max_examples=40, deadline=None)
@given(factors(), st.randoms(use_true_random=False))
def test_product_matches_definitions(parts, rng):
    prod = product_system(parts)
    pts = prod.space.points
    assert_distinct(prod.space)
    assert pts == tuple(itertools.product(*[s.space.points for s, _ in parts]))
    steps = [iterate(s, e) for s, e in parts]
    for i, p in enumerate(pts):
        assert pts[prod.table[i]] == tuple(apply(t, x)
                                           for t, x in zip(steps, p))
    spaces = [s.space for s, _ in parts]
    for i, j in sampled_pairs(rng, len(pts)):
        assert prod.space.d_by_index(i, j) == \
            brute_product_distance(spaces, pts[i], pts[j])


@settings(max_examples=40, deadline=None)
@given(factors(max_factors=2))
def test_every_pair_of_small_products(parts):
    prod = product_system(parts)
    pts = prod.space.points
    spaces = [s.space for s, _ in parts]
    assert_every_pair(prod.space, lambda i, j: brute_product_distance(
        spaces, pts[i], pts[j]))
