"""Derived state spaces (products, subset lifts, fuzzy lifts) against the
definitions: every point distinct, every transition equal to the pointwise
step of the decoded state, every distance equal to a brute-force oracle,
and a known gap equal to the least distance between distinct states."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.errors import InputError
from fuzzdyn.fuzzy import (FuzzySet, GFunction, LevelGrid, _code, _code_steps,
                           _g_levels, _renderer, constraint_label,
                           enumerate_fuzzy, fuzzy_lift_system,
                           normalize_constraint)
from fuzzdyn.hyperspace import MASK_PAIR_MAX_POINTS, lift_system
from fuzzdyn.spaces import SystemMap, iterate, product_system

from helpers import (brute_fuzzy_states, brute_fuzzy_step, brute_hausdorff,
                     brute_levelwise, brute_product_distance, image_points,
                     taxi_space)

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


@settings(max_examples=60, deadline=None)
@given(table_systems(), st.integers(1, 2), st.data())
def test_fuzzy_lift_matches_definitions(sys, m, data):
    grid = LevelGrid(m)
    constraint = data.draw(constraints(grid))
    g = data.draw(st.none() | gfunctions(grid))

    family = list(enumerate_fuzzy(sys.space, grid, constraint))
    try:
        lift = fuzzy_lift_system(sys, grid, constraint, g=g)
    except InputError:
        grades = {a.grades for a in family}
        assert any(brute_fuzzy_step(sys, a, g).grades not in grades
                   for a in family)
        return
    pts = lift.space.points
    assert_distinct(lift.space)
    assert tuple(pts) == tuple(a.grades for a in family)
    states = [FuzzySet(sys.space, grid, p) for p in pts]
    for i, a in enumerate(states):
        assert pts[lift.table[i]] == brute_fuzzy_step(sys, a, g).grades
    rng = data.draw(st.randoms(use_true_random=False))
    for i, j in sampled_pairs(rng, len(pts)):
        assert lift.space.d_by_index(i, j) == \
            brute_levelwise(states[i], states[j])


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
    # the states, the step table and the invariance error of every slice
    # against product-order grade tuples stepped by the definition
    grid = LevelGrid(m)
    g = data.draw(st.none() | gfunctions(grid))
    n = len(sys.space.points)
    for constraint in every_constraint(grid):
        states = brute_fuzzy_states(n, grid, constraint)
        index = {s: i for i, s in enumerate(states)}
        images = [brute_fuzzy_step(sys, FuzzySet(sys.space, grid, s),
                                   g).grades for s in states]
        leaving = next((i for i, t in enumerate(images) if t not in index),
                       None)
        if leaving is not None:
            with pytest.raises(InputError) as err:
                fuzzy_lift_system(sys, grid, constraint, g=g)
            label = constraint_label(normalize_constraint(constraint))
            assert str(err.value) == (
                f"lift not invariant: state {states[leaving]} maps to "
                f"height {max(images[leaving])} outside constraint {label}")
            continue
        lift = fuzzy_lift_system(sys, grid, constraint, g=g)
        assert len(lift.space.points) == len(states)
        assert tuple(lift.space.points) == tuple(states)
        assert list(lift.table) == [index[t] for t in images]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_rendered_points_index_like_a_tuple(n, m, data):
    grid = LevelGrid(m)
    constraint = data.draw(constraints(grid))
    points = fuzzy_lift_system(SystemMap(taxi_space(
        [(F(i), F(0)) for i in range(n)]), list(range(n))), grid,
        constraint).space.points
    states = tuple(brute_fuzzy_states(n, grid, constraint))
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
    states = [FuzzySet(sys.space, grid, p) for p in fuzzy.space.points]
    assert_every_pair(fuzzy.space, lambda i, j: brute_levelwise(
        states[i], states[j]))
    # over a metric of two or more points the gap is known
    for space in (lift.space, fuzzy.space):
        assert (space.gap is None) == (len(sys.space) == 1)


def test_lifts_above_the_pair_table_bound():
    """On a base above MASK_PAIR_MAX_POINTS the scan reader is dist_int
    itself; both lifts still match the definitions on sampled pairs, the
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
        scan = space.scan_metric()
        assert scan == space.dist_int
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
        assert pts[prod.table[i]] == tuple(t.apply(x)
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
