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
                           g_fuzzify_apply, xi_of, zadeh_apply)
from fuzzdyn.hyperspace import (CompactSet, enumerate_compacts,
                                hausdorff_distance, lift_system)
import fuzzdyn.spaces as spaces
from fuzzdyn.spaces import (SystemMap, circle_space, make_grid_interval_map,
                            make_multiply, make_rotation)
from helpers import (apply, brute_eventual_period, brute_levelwise,
                     count_states, image_points, random_table_system,
                     surjective)

F = Fraction


def indicator(space, grid, lam, members):
    return FuzzySet(space, grid, [lam if p in members else F(0)
                                  for p in space.points])


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
                rhs = frozenset(apply(sys, p)
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
        want = indicator(m.space, grid, F(1), {apply(m, 1), apply(m, 2)})
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
        xi = xi_of(g)
        current, cuts = a, {alpha: alpha for alpha in grid.levels}
        for n in range(1, 4):
            current = g_fuzzify_apply(sys, g, current)
            cuts = {alpha: xi[lv] for alpha, lv in cuts.items()}
            for alpha, level in cuts.items():
                want = alpha_cut(a, level).members
                for _ in range(n):
                    want = frozenset(apply(sys, p) for p in want)
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

    def test_bound(self, monkeypatch):
        monkeypatch.setattr(spaces, "STATE_CAP", 1000)
        with pytest.raises(BoundExceeded):
            list(enumerate_fuzzy(circle_space(9), LevelGrid(3)))

    def test_grid_levels_are_bounded(self):
        assert len(LevelGrid(1024).levels) == 1024
        with pytest.raises(BoundExceeded, match="^grade grid: size 1025 "
                                                "exceeds bound 1024$"):
            LevelGrid(1025)


class TestFuzzyLift:
    def test_identity_lifts_to_identity(self):
        lift = fuzzy_lift_system(make_multiply(5, 1), LevelGrid(1),
                                 ("eq", F(1)))
        assert tuple(lift.table) == tuple(range(len(lift.space.points)))

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
        assert surjective(lift)

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
                    assert a.grades[space.index(p)] == expect


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.integers(0, n - 1), min_size=n, max_size=n)), st.integers(1, 3),
    st.data())
def test_lifts_take_the_base_period(table, m, data):
    """The subset lift and Zadeh's extension under every constraint have
    the eventual period of the base."""
    sys = SystemMap(circle_space(len(table)), table)
    grid = LevelGrid(m)
    lam = data.draw(st.sampled_from(grid.levels))
    lifts = [lift_system(sys)] + [
        fuzzy_lift_system(sys, grid, c)
        for c in ("all", "nonempty", ("eq", lam), ("ge", lam))]
    for lift in lifts:
        pre, per, settled = brute_eventual_period(lift.whole_table())
        assert lift.eventual_period() == (pre, per), lift.label
        assert lift.preperiod_table() == settled, lift.label
    assert all(lift.eventual_period() == sys.eventual_period()
               for lift in lifts)


def test_zadeh_lift_period_walks_only_the_base(monkeypatch):
    """Reading the period of a 19,682-state lift walks no table longer
    than the base's 9 entries."""
    walked = []
    rho = spaces._rho
    monkeypatch.setattr(spaces, "_rho",
                        lambda table: walked.append(len(table)) or rho(table))
    base = make_grid_interval_map("half", 8)
    f0 = fuzzy_lift_system(base, LevelGrid(2), "nonempty")
    assert f0.eventual_period() == (4, 1)
    assert walked and max(walked) <= len(base.table)
