import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.fuzzy import (FuzzySet, GFunction, LevelGrid, alpha_cut,
                           enumerate_fuzzy, fuzzy_lift_system,
                           g_fuzzify_apply, xi_of, xi_iterate, zadeh_apply)
from fuzzdyn.hyperspace import (CompactSet, enumerate_compacts,
                                hausdorff_distance, lift_system)
from fuzzdyn.spaces import (SystemMap, circle_space, make_multiply,
                            make_rotation)
from helpers import (brute_levelwise, count_states, image_points,
                     random_table_system)

F = Fraction


def indicator(space, grid, lam, members):
    return FuzzySet.from_map(space, grid, {p: lam for p in members})


def empty_fuzzy(space, grid):
    return FuzzySet(space, grid, [F(0)] * len(space.points))


class TestAlphaCut:
    def test_indicator_cuts(self):
        space = circle_space(5)
        grid = LevelGrid(2)
        a = indicator(space, grid, F(1, 2), [0, 2])
        assert alpha_cut(a, F(1, 2)).members == {0, 2}
        assert alpha_cut(a, F(1)).members == set()

    def test_three_grade_example(self):
        space = circle_space(3)
        a = FuzzySet(space, LevelGrid(2), [F(0), F(1, 2), F(1)])
        assert alpha_cut(a, F(1, 2)).members == {1, 2}
        assert alpha_cut(a, F(3, 4)).members == {2}

    def test_alpha_domain(self):
        space = circle_space(3)
        a = empty_fuzzy(space, LevelGrid(2))
        with pytest.raises(InputError):
            alpha_cut(a, F(0))
        with pytest.raises(InputError):
            alpha_cut(a, F(3, 2))

    def test_cut_chain_decreasing_exhaustive(self):
        space = circle_space(3)
        grid = LevelGrid(3)
        for a in enumerate_fuzzy(space, grid):
            cuts = [alpha_cut(a, lv).members for lv in grid.levels]
            for hi, lo in zip(cuts, cuts[1:]):
                assert lo <= hi


class TestSupport:
    """The support {x : grade(x) > 0} of a grid state is its cut at the
    least level 1/m."""

    def test_indicator_support(self):
        space = circle_space(4)
        a = indicator(space, LevelGrid(4), F(3, 4), [1, 3])
        assert alpha_cut(a, F(1, 4)).members == {1, 3}

    def test_empty_fuzzy_support(self):
        space = circle_space(4)
        assert alpha_cut(empty_fuzzy(space, LevelGrid(2)), F(1, 2)).is_empty

    def test_union_of_cuts(self):
        space = circle_space(4)
        grid = LevelGrid(3)
        rng = random.Random(1)
        choices = grid.with_zero()
        for _ in range(40):
            a = FuzzySet(space, grid,
                         [rng.choice(choices) for _ in space.points])
            union = set()
            for lv in grid.levels:
                union |= alpha_cut(a, lv).members
            support = {p for p, g in zip(space.points, a.grades) if g > 0}
            assert alpha_cut(a, grid.levels[0]).members == support == union


class TestLevelwiseDistance:
    """The levelwise metric of the fuzzy lift, read at fuzzy states."""

    def test_zero_on_equal(self):
        lift = fuzzy_lift_system(make_multiply(4, 1), LevelGrid(2), "all")
        for i in range(len(lift.space)):
            assert lift.space.dist_int(i, i) == 0

    def test_same_height_indicators_reduce_to_hausdorff(self):
        sys = make_rotation(8, 1)
        grid = LevelGrid(2)
        c = CompactSet(sys.space, [0, 1])
        d = CompactSet(sys.space, [4])
        for lam in grid.levels:
            lift = fuzzy_lift_system(sys, grid, ("eq", lam))
            got = lift.space.d(indicator(sys.space, grid, lam, c).grades,
                               indicator(sys.space, grid, lam, d).grades)
            assert got == hausdorff_distance(c, d)

    def test_height_gap_forces_diameter(self):
        sys = make_rotation(8, 1)
        grid = LevelGrid(2)
        lift = fuzzy_lift_system(sys, grid, "all")
        one = indicator(sys.space, grid, F(1), [0, 1])
        half = indicator(sys.space, grid, F(1, 2), [0, 1])
        assert lift.space.d(one.grades, half.grades) == sys.space.diam

    def test_matches_level_enumeration_oracle(self):
        sys = make_rotation(5, 1)
        grid = LevelGrid(3)
        lift = fuzzy_lift_system(sys, grid, "all")
        rng = random.Random(2)
        choices = grid.with_zero()
        for _ in range(60):
            a = FuzzySet(sys.space, grid,
                         [rng.choice(choices) for _ in sys.space.points])
            b = FuzzySet(sys.space, grid,
                         [rng.choice(choices) for _ in sys.space.points])
            assert lift.space.d(a.grades, b.grades) == brute_levelwise(a, b)

    def test_metric_axioms_on_height_one_slice(self):
        lift = fuzzy_lift_system(make_rotation(3, 1), LevelGrid(2),
                                 ("eq", F(1)))
        d = lift.space.d_by_index
        states = range(len(lift.space))
        assert len(states) == 19
        for a, b in itertools.combinations(states, 2):
            assert d(a, b) > 0
            assert d(a, b) == d(b, a)
        for a, b, c in itertools.combinations(states, 3):
            assert d(a, c) <= d(a, b) + d(b, c)


class TestZadeh:
    def test_identity_system_fixes_everything(self):
        ident = make_multiply(5, 1)
        grid = LevelGrid(2)
        for a in enumerate_fuzzy(ident.space, grid):
            assert zadeh_apply(ident, a) == a

    def test_cut_commutation_single_step(self):
        grid = LevelGrid(3)
        rng = random.Random(3)
        for _ in range(30):
            sys = random_table_system(rng, 5)
            choices = grid.with_zero()
            a = FuzzySet(sys.space, grid,
                         [rng.choice(choices) for _ in sys.space.points])
            image = zadeh_apply(sys, a)
            for lv in grid.levels:
                lhs = alpha_cut(image, lv).members
                rhs = frozenset(sys.apply(p)
                                for p in alpha_cut(a, lv).members)
                assert lhs == rhs

    def test_indicator_maps_to_image_indicator(self):
        m = make_multiply(8, 2)
        grid = LevelGrid(2)
        got = zadeh_apply(m, indicator(m.space, grid, F(1, 2), [1, 3, 5, 7]))
        want = indicator(m.space, grid, F(1, 2), [2, 6])
        assert got == want

    def test_empty_state_fixed(self):
        m = make_multiply(8, 2)
        grid = LevelGrid(2)
        assert zadeh_apply(m, empty_fuzzy(m.space, grid)).is_empty

    def test_height_preserved(self):
        rng = random.Random(4)
        grid = LevelGrid(2)
        for _ in range(40):
            sys = random_table_system(rng, 6)
            choices = grid.with_zero()
            a = FuzzySet(sys.space, grid,
                         [rng.choice(choices) for _ in sys.space.points])
            assert zadeh_apply(sys, a).height == a.height


class TestGFunctions:
    def test_identity_transfer(self):
        grid = LevelGrid(4)
        g = GFunction.identity(grid)
        xi = xi_of(g)
        for x in grid.with_zero():
            assert xi[x] == x

    def test_zero_maps_to_zero(self):
        grid = LevelGrid(3)
        g = GFunction(grid, {F(0): 0, F(1, 3): F(2, 3), F(2, 3): F(2, 3),
                             F(1): 1})
        assert xi_of(g)[F(0)] == 0

    def test_quarter_grid_example(self):
        grid = LevelGrid(4)
        g = GFunction(grid, {F(0): 0, F(1, 4): F(1, 2), F(1, 2): F(1, 2),
                             F(3, 4): F(3, 4), F(1): 1})
        assert xi_of(g)[F(1, 2)] == F(1, 4)

    def test_invalid_g_rejected(self):
        grid = LevelGrid(2)
        with pytest.raises(InputError):
            GFunction(grid, {F(0): F(1, 2), F(1, 2): F(1, 2), F(1): 1})
        with pytest.raises(InputError):
            GFunction(grid, {F(0): 0, F(1, 2): 1, F(1): F(1, 2)})

    def test_g_identity_reduces_to_zadeh(self):
        rng = random.Random(5)
        grid = LevelGrid(3)
        g = GFunction.identity(grid)
        for _ in range(30):
            sys = random_table_system(rng, 5)
            choices = grid.with_zero()
            a = FuzzySet(sys.space, grid,
                         [rng.choice(choices) for _ in sys.space.points])
            assert g_fuzzify_apply(sys, g, a) == zadeh_apply(sys, a)

    def test_top_heavy_g_gives_support_indicator(self):
        grid = LevelGrid(2)
        g = GFunction(grid, {F(0): 0, F(1, 2): 1, F(1): 1})
        m = make_multiply(9, 2)
        a = FuzzySet(m.space, grid,
                     [F(1, 2) if p in (1, 2) else F(0) for p in m.space.points])
        got = g_fuzzify_apply(m, g, a)
        want = indicator(m.space, grid, F(1), {m.apply(1), m.apply(2)})
        assert got == want

    def test_grid_mismatch_rejected(self):
        m = make_multiply(5, 1)
        g = GFunction.identity(LevelGrid(2))
        a = empty_fuzzy(m.space, LevelGrid(3))
        with pytest.raises(InputError):
            g_fuzzify_apply(m, g, a)


def random_gfunction(rng, grid):
    levels = grid.with_zero()
    values = sorted(rng.choice(levels) for _ in range(len(levels) - 2))
    table = {F(0): F(0), F(1): F(1)}
    for lv, val in zip(levels[1:-1], values):
        table[lv] = val
    # enforce nondecreasing against the endpoints
    prev = F(0)
    for lv in levels[1:-1]:
        table[lv] = max(table[lv], prev)
        prev = table[lv]
    return GFunction(grid, table)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 30 - 1))
def test_xi_nondecreasing_and_positive(m, seed):
    grid = LevelGrid(m)
    g = random_gfunction(random.Random(seed), grid)
    xi = xi_of(g)
    keys = grid.with_zero()
    for a, b in zip(keys, keys[1:]):
        assert xi[a] <= xi[b]
    for x in grid.levels:
        assert xi[x] > 0


@pytest.mark.parametrize("n,alpha", [(1, F(1, 3)), (0, F(1, 3)),
                                     (-1, F(1, 2))])
def test_xi_iterate_rejects_bad_input(n, alpha):
    g = GFunction.identity(LevelGrid(2))
    with pytest.raises(InputError):
        xi_iterate(g, n, alpha)


def test_cut_commutation_iterated_random():
    rng = random.Random(6)
    for _ in range(30):
        m = rng.randrange(2, 5)
        grid = LevelGrid(m)
        sys = random_table_system(rng, rng.randrange(2, 7))
        g = random_gfunction(rng, grid)
        choices = grid.with_zero()
        a = FuzzySet(sys.space, grid,
                     [rng.choice(choices) for _ in sys.space.points])
        current = a
        for n in range(1, 4):
            current = g_fuzzify_apply(sys, g, current)
            for alpha in grid.levels:
                level = xi_iterate(g, n, alpha)
                want = alpha_cut(a, level).members
                for _ in range(n):
                    want = frozenset(sys.apply(p) for p in want)
                assert alpha_cut(current, alpha).members == want


class TestEmbedIndicator:
    def test_cut_roundtrip(self):
        space = circle_space(6)
        grid = LevelGrid(4)
        c = CompactSet(space, [0, 5])
        a = indicator(space, grid, F(3, 4), c)
        assert alpha_cut(a, F(3, 4)) == c
        assert a.height == F(3, 4)

    def test_whole_space_fixed_by_surjection(self):
        m = make_multiply(9, 2)
        grid = LevelGrid(2)
        top = indicator(m.space, grid, F(1), m.space.points)
        assert zadeh_apply(m, top) == top

    def test_isometric_and_equivariant(self):
        sys = make_rotation(5, 1)
        grid = LevelGrid(2)
        lam = F(1, 2)
        lift = fuzzy_lift_system(sys, grid, ("eq", lam))
        sets = list(enumerate_compacts(sys.space))
        for a, b in itertools.combinations(sets, 2):
            assert lift.space.d(indicator(sys.space, grid, lam, a).grades,
                                indicator(sys.space, grid, lam, b).grades) \
                == hausdorff_distance(a, b)
        for a in sets:
            lhs = zadeh_apply(sys, indicator(sys.space, grid, lam, a))
            rhs = indicator(sys.space, grid, lam,
                            image_points(sys, a.members))
            assert lhs == rhs


class TestEnumeration:
    def test_indicator_count_two_points(self):
        space = circle_space(2)
        states = list(enumerate_fuzzy(space, LevelGrid(1), ("eq", F(1))))
        assert len(states) == 3

    def test_all_count(self):
        space = circle_space(2)
        assert len(list(enumerate_fuzzy(space, LevelGrid(2)))) == 9

    def test_height_one_inclusion_exclusion(self):
        space = circle_space(3)
        grid = LevelGrid(2)
        states = list(enumerate_fuzzy(space, grid, ("eq", F(1))))
        assert len(states) == 27 - 8 == 19
        assert len(states) == count_states(3, grid, ("eq", F(1)))

    def test_uniqueness_and_constraints(self):
        space = circle_space(3)
        grid = LevelGrid(2)
        ge = list(enumerate_fuzzy(space, grid, ("ge", F(1, 2))))
        assert len(ge) == len({s.grades for s in ge}) == 26
        assert all(s.height >= F(1, 2) for s in ge)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            list(enumerate_fuzzy(circle_space(9), LevelGrid(3), cap=1000))


class TestFuzzyLift:
    def test_identity_lifts_to_identity(self):
        lift = fuzzy_lift_system(make_multiply(5, 1), LevelGrid(1),
                                 ("eq", F(1)))
        assert lift.table == tuple(range(len(lift.space.points)))

    def test_conjugate_to_subset_lift_at_unit_grid(self):
        sys = make_rotation(3, 1)
        key = lift_system(sys)
        flift = fuzzy_lift_system(sys, LevelGrid(1), ("eq", F(1)))
        to_subset = {}
        for state in flift.space.points:
            members = frozenset(p for p, g in zip(sys.space.points, state)
                                if g == 1)
            to_subset[state] = members
        k_index = {p: i for i, p in enumerate(key.space.points)}
        for i, state in enumerate(flift.space.points):
            fi = flift.space.points[flift.table[i]]
            ki = key.table[k_index[to_subset[state]]]
            assert to_subset[fi] == key.space.points[ki]
        states = flift.space.points
        for a, b in itertools.combinations(states, 2):
            assert flift.space.d(a, b) == key.space.d(to_subset[a],
                                                      to_subset[b])

    def test_doubling_mod_nine_height_one_lift_surjective(self):
        lift = fuzzy_lift_system(make_multiply(9, 2), LevelGrid(2),
                                 ("eq", F(1)))
        assert len(lift.space.points) == 3 ** 9 - 2 ** 9
        assert lift.surjective

    def test_lazy_levelwise_metric_matches_oracle(self):
        sys = make_rotation(4, 1)
        grid = LevelGrid(2)
        lift = fuzzy_lift_system(sys, grid, "all")
        rng = random.Random(9)
        pts = lift.space.points
        for _ in range(150):
            s1, s2 = rng.choice(pts), rng.choice(pts)
            a = FuzzySet(sys.space, grid, s1)
            b = FuzzySet(sys.space, grid, s2)
            assert lift.space.d(s1, s2) == brute_levelwise(a, b)

    def test_grade_distortion_noninvariance_reported(self):
        grid = LevelGrid(2)
        g = GFunction(grid, {F(0): 0, F(1, 2): 0, F(1): 1})
        with pytest.raises(InputError):
            fuzzy_lift_system(make_rotation(3, 1), grid, ("eq", F(1, 2)), g=g)

    def test_noninvariance_names_the_first_state(self):
        grid = LevelGrid(2)
        g = GFunction(grid, {F(0): 0, F(1, 2): 0, F(1): 1})
        with pytest.raises(InputError) as err:
            fuzzy_lift_system(make_rotation(3, 1), grid, ("eq", F(1, 2)), g=g)
        assert str(err.value) == (
            "lift not invariant: state (Fraction(0, 1), Fraction(0, 1), "
            "Fraction(1, 2)) maps to height 0 outside constraint h=1/2")

    def test_noninvariance_on_the_f0_slice(self):
        # g(1/2) = 0 empties the first state of height 1/2
        grid = LevelGrid(2)
        g = GFunction(grid, {F(0): 0, F(1, 2): 0, F(1): 1})
        with pytest.raises(InputError) as err:
            fuzzy_lift_system(make_rotation(3, 1), grid, "nonempty", g=g)
        assert str(err.value) == (
            "lift not invariant: state (Fraction(0, 1), Fraction(0, 1), "
            "Fraction(1, 2)) maps to height 0 outside constraint F0")

    def test_lift_build_transient_memory(self):
        # the states are codes, stepped column by column: no grade tuple,
        # index dict or point tuple per state (6.05 MiB when there were)
        sys = make_rotation(9, 1)
        sys.preimages()
        tracemalloc.start()
        try:
            fuzzy_lift_system(sys, LevelGrid(2), "nonempty")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20

    def test_grade_cut_duality(self):
        space = circle_space(4)
        for m in (1, 2, 3):
            grid = LevelGrid(m)
            for a in enumerate_fuzzy(space, grid):
                for p in space.points:
                    attained = [lv for lv in grid.levels
                                if p in alpha_cut(a, lv).members]
                    expect = max(attained) if attained else F(0)
                    assert a.grade(p) == expect


def test_height_obstruction_small():
    sys = make_rotation(3, 1)
    grid = LevelGrid(2)
    lift = fuzzy_lift_system(sys, grid, "all")
    states = list(enumerate_fuzzy(sys.space, grid))
    for a, b in itertools.combinations(states, 2):
        if a.height == b.height:
            continue
        cur_a, cur_b = a, b
        for _ in range(4):
            assert lift.space.d(cur_a.grades, cur_b.grades) == sys.space.diam
            cur_a = zadeh_apply(sys, cur_a)
            cur_b = zadeh_apply(sys, cur_b)
