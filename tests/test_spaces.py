import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.catalog import base_catalog, catalog_upto
from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.hyperspace import lift_system
from fuzzdyn.spaces import (MetricSpace, SystemMap, circle_space,
                            eventual_period, interval_grid_space, iterate,
                            make_grid_interval_map, make_multiply,
                            make_rotation, one_point_system, product_system,
                            validate_metric)
from helpers import brute_eventual_period, brute_metric_violations

F = Fraction


class TestValidateMetric:
    def test_triangle_violation_named(self):
        rows = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        space = MetricSpace("abc", matrix=rows)
        violations = validate_metric(space)
        assert len(violations) == 1
        assert "triangle" in violations[0]
        assert "a" in violations[0] and "c" in violations[0]

    def test_discrete_metric_clean(self):
        rows = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
        assert validate_metric(MetricSpace(range(5), matrix=rows)) == []

    def test_circle_grid_z8_clean(self):
        assert validate_metric(circle_space(8)) == []

    def test_symmetry_and_positivity_flagged(self):
        space = MetricSpace("ab", matrix=[[0, 0], [0, 0]])
        msgs = "\n".join(validate_metric(space))
        assert "not positive" in msgs

    def test_all_catalog_spaces_clean(self):
        for sys in base_catalog():
            assert validate_metric(sys.space) == [], sys.label


@st.composite
def distance_tables(draw, max_points=6):
    """Square tables with asymmetric, zero, negative and triangle-violating
    entries; about half are mirrored to be symmetric."""
    n = draw(st.integers(1, max_points))
    value = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2),
                             F(5), F(-1, 2)])
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] if i != j else F(0)
                 for j in range(n)] for i in range(n)]
    return MetricSpace([f"p{i}" for i in range(n)], matrix=rows)


class TestValidateMetricOracle:
    @settings(max_examples=80, deadline=None)
    @given(distance_tables())
    def test_matches_fraction_oracle(self, space):
        assert validate_metric(space) == brute_metric_violations(space)

    def test_lazy_space_matches_oracle(self):
        space = lift_system(make_rotation(3, 1)).space
        assert validate_metric(space) == brute_metric_violations(space) == []


class TestRotation:
    def test_order_four_cycle(self):
        r = make_rotation(4, 1)
        assert r.orbit_points(0, 4) == [0, 1, 2, 3, 0]

    def test_rotation_is_isometry(self):
        assert make_rotation(12, 1).is_isometry()

    def test_step_two_orbit_stuck_on_evens(self):
        r = make_rotation(6, 2)
        assert set(r.orbit_points(0, 6)) == {0, 2, 4}

    def test_zero_points_rejected(self):
        with pytest.raises(InputError):
            make_rotation(0)

    def test_surjective(self):
        assert make_rotation(7, 3).surjective


class TestMultiply:
    def test_order_of_two_mod_nine(self):
        m = make_multiply(9, 2)
        assert iterate(m, 6).table == tuple(range(9))
        for k in range(1, 6):
            assert iterate(m, k).table != tuple(range(9))

    def test_doubling_mod_eight_not_surjective(self):
        m = make_multiply(8, 2)
        assert not m.surjective
        assert set(m.table) == {0, 2, 4, 6}

    def test_identity_when_a_is_one(self):
        assert make_multiply(5, 1).table == tuple(range(5))


class TestGridIntervalMap:
    def test_halving_orbit_of_one(self):
        half = make_grid_interval_map("half", 8)
        orbit = half.orbit_points(F(1), 4)
        assert orbit == [F(1), F(1, 2), F(1, 4), F(1, 8), F(0)]

    def test_halving_images_shrink_to_zero(self):
        half = make_grid_interval_map("half", 8)
        current = frozenset(range(9))
        for _ in range(4):
            current = half.image_indices(current)
        assert current == {0}

    def test_identity_shape(self):
        ident = make_grid_interval_map("identity", 6)
        assert ident.table == tuple(range(7))

    def test_tent_snap_nearest_surjectivity_computed(self):
        # exact tent values on {i/8} land on even eighths only, so the
        # snapped table misses the odd grid points
        tent = make_grid_interval_map("tent", 8, snap="nearest")
        image = {tent.space.points[i] for i in set(tent.table)}
        assert image == {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)}
        assert not tent.surjective

    def test_map_leaving_interval_rejected(self):
        with pytest.raises(InputError):
            make_grid_interval_map([(0, 0), (1, 2)], 4)

    def test_bad_snap_rejected(self):
        with pytest.raises(InputError):
            make_grid_interval_map("half", 4, snap="up")


class TestProductSystem:
    def test_singleton_product_conjugate(self):
        r = make_rotation(5, 2)
        p = product_system([(r, 1)])
        relabel = {(x,): x for x in r.space.points}
        for i, pt in enumerate(p.space.points):
            image = p.space.points[p.table[i]]
            assert relabel[image] == r.apply(relabel[pt])

    def test_exponent_vector_orbit(self):
        r = make_rotation(4, 1)
        p = product_system([(r, 1), (r, 2)])
        assert p.orbit_points((0, 0), 2) == [(0, 0), (1, 2), (2, 0)]

    def test_two_fold_product_of_two_cycle_misses_diagonal(self):
        r = make_rotation(2, 1)
        p = product_system([(r, 1), (r, 1)])
        orbit = p.orbit_points((0, 1), 4)
        assert len(set(orbit)) == 2
        assert (0, 0) not in orbit

    def test_empty_factor_list_rejected(self):
        with pytest.raises(InputError):
            product_system([])

    def test_state_cap(self):
        r = make_rotation(12, 1)
        with pytest.raises(BoundExceeded):
            product_system([(r, 1)] * 6, state_cap=10_000)

    def test_max_metric(self):
        r = make_rotation(4, 1)
        p = product_system([(r, 1), (r, 1)])
        assert p.space.d((0, 0), (1, 2)) == F(1, 2)


class TestIterate:
    def test_zeroth_iterate_is_identity(self):
        m = make_multiply(8, 2)
        assert iterate(m, 0).table == tuple(range(8))

    def test_full_cycle(self):
        assert iterate(make_rotation(4, 1), 4).table == tuple(range(4))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            iterate(make_rotation(3, 1), -1)

    def test_semigroup_law_on_catalog(self):
        # T^(a+b) composes T^a after T^b; composing iterates multiplies
        for sys in catalog_upto(8):
            for a in range(4):
                for b in range(4):
                    ta = iterate(sys, a).table
                    tb = iterate(sys, b).table
                    composed = tuple(ta[tb[i]] for i in range(len(ta)))
                    assert iterate(sys, a + b).table == composed, sys.label
                    assert iterate(iterate(sys, a), b).table == \
                        iterate(sys, a * b).table, sys.label


class TestEventualPeriod:
    def test_identity(self):
        assert eventual_period(make_multiply(5, 1)) == (0, 1)

    def test_rotation_twelve(self):
        assert eventual_period(make_rotation(12, 1)) == (0, 12)

    def test_halving_map_exact_values(self):
        # orbit of 1 needs four steps to reach 0, so the map table goes
        # constant at n = 4 and stays there
        half = make_grid_interval_map("half", 8)
        assert eventual_period(half) == (4, 1)

    def test_minimality(self):
        for sys in catalog_upto(9):
            pre, per = eventual_period(sys)
            t_pre = iterate(sys, pre).table
            assert iterate(sys, pre + per).table == t_pre
            for smaller in range(1, per):
                assert iterate(sys, pre + smaller).table != t_pre, sys.label


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.integers(0, n - 1), min_size=n, max_size=n)))
def test_eventual_period_matches_table_hashing(table):
    sys = SystemMap(circle_space(len(table)), table)
    pre, per, settled = brute_eventual_period(sys.table)
    assert sys.eventual_period() == (pre, per)
    assert sys.preperiod_table() == settled


def test_eventual_period_of_a_long_cycle_is_one_walk():
    # rotation(2000, 1): hashing 2000 iterate tables took 31 MiB at peak
    space = MetricSpace(range(2000), fn=lambda i, j: int(i != j), denom=1,
                        diam=F(1))
    sys = SystemMap(space, [(i + 1) % 2000 for i in range(2000)])
    tracemalloc.start()
    try:
        assert sys.eventual_period() == (0, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys.preperiod_table() == tuple(range(2000))
    assert peak < 2 ** 20


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=6, max_size=6),
       st.integers(0, 5), st.integers(0, 5))
def test_iterate_semigroup_random_tables(table, a, b):
    sys = SystemMap(circle_space(6), table)
    ta, tb = iterate(sys, a).table, iterate(sys, b).table
    assert iterate(sys, a + b).table == tuple(ta[tb[i]] for i in range(6))


def test_one_point_system():
    s = one_point_system()
    assert len(s.space.points) == 1
    assert s.surjective
    assert not s.space.nontrivial


def test_interval_grid_space():
    g = interval_grid_space(4)
    assert g.points == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    assert g.diam == 1
    assert g.d(F(1, 4), F(3, 4)) == F(1, 2)


def test_duplicate_point_ids_rejected_on_table_space():
    with pytest.raises(InputError):
        MetricSpace([1, 2, 1], matrix=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_lazy_space_needs_diam():
    with pytest.raises(InputError):
        MetricSpace([1, 2], fn=lambda p, q: F(1))
