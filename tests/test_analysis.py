import functools
import gc
import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fuzzdyn.analysis as analysis
import fuzzdyn.oracles as oracles
from fuzzdyn.analysis import (_scan, diam_decay, equicontinuity_modulus,
                              is_a_transitive, is_F_transitive,
                              is_mildly_mixing_bounded, is_mixing,
                              is_periodically_dense, is_proximal,
                              is_proximal_pair, is_sensitive, is_transitive,
                              is_uniformly_rigid, is_weakly_mixing,
                              return_time_set, weakly_disjoint)
from fuzzdyn.catalog import base_catalog, transitive_catalog
from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.families import FamilyClassifier
from fuzzdyn.fuzzy import LevelGrid, fuzzy_lift_system
from fuzzdyn.hyperspace import lift_system
from fuzzdyn.oracles import (CylinderOpen, HyperShiftDyn, ProductDyn,
                             ProductOpen, ShiftDyn, TableDyn, VietorisOpen,
                             _BoxBasis, _LazyRow, _SingletonBasis,
                             points_open)
from fuzzdyn.spaces import (MetricSpace, SystemMap, circle_space, iterate,
                            make_grid_interval_map, make_multiply,
                            make_rotation, one_point_system, product_system)
from fuzzdyn.symbolic import ShiftSystem, full_shift
from helpers import (PairwiseProduct, apply, ball, brute_ip_search,
                     brute_proximal, brute_return_times, brute_transitive,
                     distance_values,
                     image_points, omega_limit, pairwise_first_failure,
                     pairwise_mixing, pairwise_tail, pairwise_transitive,
                     point_return_set, random_table_system, recurrent_points,
                     shift_brute_member, vertex_shifts)

F = Fraction


class TestOpens:
    def test_points_open_rejects_foreign_point(self):
        space = circle_space(4)
        with pytest.raises(InputError):
            points_open(space, [0, 7])

    def test_points_open_renders_members_and_label(self):
        u = points_open(circle_space(4), [2, 0])
        assert u.members == frozenset({0, 2})
        assert u.label == "{0,2}"

    def test_singleton_basis_counterexample_labels(self):
        r = make_rotation(3, 1)
        lift = lift_system(r)
        assert is_mixing(lift).counterexample == ("B({0})", "B({0})", 1)
        v = is_transitive(lift, basis=_SingletonBasis(lift.space))
        assert v.counterexample == ("B({0})", "B({0,1})")
        prod = product_system([(r, 1), (r, 1)])
        assert is_mixing(prod).counterexample == ("B((0,0))", "B((0,0))", 1)


class TestReturnTimeSets:
    def test_zero_in_overlapping_pair(self):
        r = make_rotation(5, 1)
        s = return_time_set(r, {0, 1}, {1, 2})
        assert 0 in s

    def test_rotation_arithmetic_progression(self):
        r = make_rotation(4, 1)
        s = return_time_set(r, {0}, {2}, horizon=16)
        assert s.sorted_members() == [2, 6, 10, 14]

    def test_matches_bruteforce_random(self):
        rng = random.Random(0)
        for _ in range(30):
            sys = random_table_system(rng, 6)
            pts = list(sys.space.points)
            u = {p for p in pts if rng.random() < 0.4} or {pts[0]}
            v = {p for p in pts if rng.random() < 0.4} or {pts[-1]}
            got = return_time_set(sys, u, v, horizon=24)
            assert got.members == brute_return_times(sys, u, v, 24)

    def test_empty_open_rejected(self):
        r = make_rotation(3, 1)
        with pytest.raises(InputError):
            return_time_set(r, set(), {0})

    def test_point_returns(self):
        r = make_rotation(6, 2)
        s = point_return_set(r, 0, {4}, horizon=12)
        assert s.sorted_members() == [2, 5, 8, 11]
        assert 0 in point_return_set(r, 2, {2}, horizon=4)

    def test_fixed_point_never_reaches(self):
        half = make_grid_interval_map("half", 8)
        s = point_return_set(half, F(0), {F(1, 2)}, horizon=10)
        assert not s.members


class TestOrbits:
    def test_omega_limit_of_periodic_point(self):
        r = make_rotation(6, 2)
        assert omega_limit(r, 0) == {0, 2, 4}

    def test_omega_limit_of_halving(self):
        half = make_grid_interval_map("half", 8)
        assert omega_limit(half, F(1)) == {F(0)}

    def test_recurrence_is_periodicity(self):
        rng = random.Random(1)
        for _ in range(20):
            sys = random_table_system(rng, 7)
            periodic = recurrent_points(sys).members
            for x in sys.space.points:
                assert (x in omega_limit(sys, x)) == (x in periodic)

    def test_birkhoff_recurrence_on_catalog(self):
        for sys in base_catalog():
            assert not recurrent_points(sys).is_empty, sys.label


class TestTransitive:
    def test_one_point(self):
        assert is_transitive(one_point_system()).holds

    def test_full_cycle(self):
        v = is_transitive(make_rotation(5, 1))
        assert v.holds and v.exact

    def test_even_rotation_counterexample_replayable(self):
        v = is_transitive(make_rotation(6, 2))
        assert v.fails and v.exact
        u_label, v_label = v.counterexample
        u = int(u_label[2:-1])
        target = int(v_label[2:-1])
        times = return_time_set(make_rotation(6, 2), {u}, {target}, 24)
        assert not times.members

    def test_shift_transitive(self):
        assert is_transitive(ShiftDyn(full_shift(2, 3))).holds


class TestWeakMixing:
    def test_one_point(self):
        assert is_weakly_mixing(one_point_system()).holds

    def test_cycles_never_weakly_mixing(self):
        for n in (2, 3, 5):
            assert is_weakly_mixing(make_rotation(n, 1)).fails

    def test_methods_agree_small(self):
        rng = random.Random(3)
        for _ in range(30):
            sys = random_table_system(rng, 4)
            product = is_weakly_mixing(sys, method="product")
            overlap = is_weakly_mixing(sys, method="lemma")
            assert product.status == overlap.status

    def test_full_shift_weakly_mixing(self):
        sd = ShiftDyn(full_shift(2, 3))
        assert is_weakly_mixing(sd).holds
        assert is_weakly_mixing(sd, method="lemma").holds


class TestMixing:
    def test_one_point(self):
        assert is_mixing(one_point_system()).holds

    def test_two_cycle_not_mixing(self):
        v = is_mixing(make_rotation(2, 1))
        assert v.fails and v.exact

    def test_full_shift_mixing_with_tail(self):
        v = is_mixing(ShiftDyn(full_shift(2, 3)))
        assert v.holds and not v.exact
        assert dict(v.witnesses)["tail_start"] <= 3


class TestFamilyTransitivity:
    def test_infinite_family_one_point(self):
        v = is_F_transitive(one_point_system(), FamilyClassifier("infinite"))
        assert v.holds and v.exact

    def test_cycle_syndetically_transitive_with_gap(self):
        # every return set of the 5-cycle is a residue class mod 5
        v = is_F_transitive(make_rotation(5, 1), FamilyClassifier("syndetic"))
        assert v.holds and v.exact
        assert v.witnesses == (("family", "syndetic"),)

    def test_thick_transitivity_is_weak_mixing(self):
        targets = [s for s in base_catalog() if len(s.space.points) <= 6]
        for sys in targets:
            thick = is_F_transitive(sys, FamilyClassifier("thick"))
            wm = is_weakly_mixing(sys)
            assert thick.status == wm.status, sys.label
        sd = ShiftDyn(full_shift(2, 3))
        assert is_F_transitive(sd, FamilyClassifier("thick")).holds == \
            is_weakly_mixing(sd).holds

    def test_f_mixing_runs_on_product(self):
        v = is_F_transitive(make_rotation(2, 1), FamilyClassifier("infinite"),
                            mixing=True)
        assert v.fails

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.integers(0, n - 1), min_size=n, max_size=n)),
        st.sampled_from(("infinite", "cofinite", "syndetic", "thick")))
    def test_tail_kinds_exact_on_tables(self, table, kind):
        """On n points every return-time set is periodic from n on with
        period at most n, so the window [n, 2n) decides each tail kind:
        infinite and syndetic sets meet it, cofinite and thick sets hold
        all of it."""
        n = len(table)
        sys = SystemMap(circle_space(n), table)
        window = set(range(n, 2 * n))
        full = kind in ("cofinite", "thick")
        expect = all(window <= times if full else bool(window & times)
                     for x in sys.space.points for y in sys.space.points
                     for times in [brute_return_times(sys, [x], [y], 2 * n)])
        v = is_F_transitive(sys, FamilyClassifier(kind))
        assert v.exact and v.holds == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.integers(0, n - 1), min_size=n, max_size=n)))
    def test_ip_family_exact_on_tables(self, table):
        """N(x, y) is periodic from n on with the period of x's cycle, and
        contains an IP set iff a search over finite sums of generators
        finds one inside it (``brute_ip_search``)."""
        n = len(table)
        sys = SystemMap(circle_space(n), table)
        expect = True
        for x in range(n):
            orbit = [x]
            while len(orbit) <= 2 * n:
                orbit.append(table[orbit[-1]])
            cycle = next(c for c in range(1, n + 1)
                         if orbit[2 * n - c] == orbit[2 * n])
            for y in sys.space.points:
                times = brute_return_times(sys, [sys.space.points[x]], [y],
                                           n + cycle)
                expect &= brute_ip_search(sum(1 << t for t in times),
                                          n, cycle)
        v = is_F_transitive(sys, FamilyClassifier("ip"))
        assert v.exact and v.holds == expect

    def test_f_mixing_takes_the_boxes_of_a_factor_basis(self):
        r = make_rotation(4, 1)
        assert is_F_transitive(r, FamilyClassifier("thick"), mixing=True,
                               basis=_SingletonBasis(r.space)) == \
            is_F_transitive(r, FamilyClassifier("thick"), mixing=True)


class TestATransitive:
    def test_unit_vector_reduces_to_transitivity(self):
        r = make_rotation(5, 1)
        assert is_a_transitive(r, (1,)).status == is_transitive(r).status

    def test_rotation_mixed_exponents_fail(self):
        assert is_a_transitive(make_rotation(3, 1), (1, 2)).fails

    def test_full_shift_mixed_exponent_products(self):
        sd = ShiftDyn(full_shift(2, 2), cylinder_length=2)
        wm = is_weakly_mixing(sd)
        at = is_a_transitive(sd, (1, 2))
        assert wm.holds and at.holds
        for combo in itertools.product((1, 2), repeat=2):
            assert is_a_transitive(sd, combo).holds


class TestWeaklyDisjoint:
    def test_against_one_point(self):
        for sys in (make_rotation(5, 1), make_rotation(6, 2)):
            v = weakly_disjoint(sys, one_point_system())
            assert v.status == is_transitive(sys).status

    def test_full_shift_and_cycle(self):
        assert weakly_disjoint(full_shift(2, 3), make_rotation(3, 1)).holds

    def test_parity_lock(self):
        v = weakly_disjoint(make_rotation(2, 1), make_rotation(2, 1))
        assert v.fails and v.exact


class TestMildMixing:
    def test_one_point_holds(self):
        # a table's quantifier closes: X x Y is Y on one point
        v = is_mildly_mixing_bounded(one_point_system())
        assert v.holds and v.exact
        assert "finite-table lemma" in v.note

    def test_prime_cycle_fails_against_itself(self):
        # 7 is coprime to every cycle of the default catalog
        v = is_mildly_mixing_bounded(make_rotation(7, 1))
        assert v.fails and v.exact
        assert v.counterexample == ("the target itself", "rotation(7,1)")
        assert "finite-table lemma" in v.note

    def test_two_cycle_fails_against_itself(self):
        v = is_mildly_mixing_bounded(make_rotation(2, 1))
        assert v.fails and v.exact

    def test_full_shift_holds_catalog_relative(self):
        v = is_mildly_mixing_bounded(full_shift(2, 3))
        assert v.holds and not v.exact
        assert "catalog" in v.note
        assert v.witnesses == (("catalog", len(transitive_catalog())),)

    def test_default_catalog_members_transitive(self):
        for member in transitive_catalog():
            if isinstance(member, SystemMap):
                assert is_transitive(member).holds, member.label
            else:
                assert is_transitive(ShiftDyn(member)).holds


def modulus(sys, eps):
    """(delta, violator or None) from the equicontinuity verdict."""
    v = equicontinuity_modulus(sys, eps)
    assert v.exact and v.holds
    wit = dict(v.witnesses)
    assert wit["eps"] == str(eps)
    return F(wit["delta"]), wit.get("violator")


class TestEquicontinuity:
    def test_isometry_gives_eps_back(self):
        r = make_rotation(6, 1)
        delta, cert = modulus(r, F(1, 6))
        assert delta == F(1, 6)

    def test_matches_definition_scan(self):
        sys = make_multiply(9, 2)
        eps = F(2, 9)
        delta, cert = modulus(sys, eps)
        # independent scan straight from the definition
        from fuzzdyn.spaces import iterate
        pre, per = sys.eventual_period()
        pts = sys.space.points
        iterates = [iterate(sys, n) for n in range(pre + per)]

        def works(candidate):
            for x, y in itertools.combinations(pts, 2):
                if sys.space.d(x, y) < candidate:
                    for it in iterates:
                        if sys.space.d(apply(it, x), apply(it, y)) >= eps:
                            return False
            return True

        candidates = [v for v in distance_values(sys.space) if v > 0]
        best = max((c for c in candidates if works(c)), default=None)
        assert delta == best
        assert cert is not None and works(delta)

    def test_modulus_grows_under_refinement(self):
        coarse = make_grid_interval_map("half", 4)
        fine = make_grid_interval_map("half", 8)
        for eps in (F(1, 8), F(1, 4), F(1, 2)):
            d_coarse, _ = modulus(coarse, eps)
            d_fine, _ = modulus(fine, eps)
            assert d_coarse >= d_fine > 0

    def test_rejects_symbolic(self):
        with pytest.raises(InputError):
            equicontinuity_modulus(full_shift(2, 3), F(1, 2))

    def test_every_pair_scan_counts_the_pair_steps_it_takes(self,
                                                            monkeypatch):
        """Above the gap the N (N - 1) / 2 pair reads are charged before
        the scan starts, and each orbit step past a pair's first read as
        it is taken.  A pair that cannot lower delta is only read, so the
        work is the scan's, not N (N - 1) / 2 (pre + per).  At the gap the
        scan stops at the first pair at the gap, and has no bound."""
        def bound(cap):
            monkeypatch.setattr(analysis, "MODULUS_PAIR_STEP_CAP", cap)

        # an isometry: every pair closer than eps is stepped in full
        rot, mul = make_rotation(6, 1), make_multiply(16, 2)
        want, mul_want = modulus(rot, F(1, 2)), modulus(mul, F(1, 4))
        bound(75)
        assert modulus(rot, F(1, 2)) == want
        bound(74)
        with pytest.raises(BoundExceeded,
                           match="^equicontinuity pair-steps: size 75 "
                                 "exceeds bound 74$"):
            equicontinuity_modulus(rot, F(1, 2))
        bound(14)
        with mock.patch.object(MetricSpace, "scan_metric",
                               side_effect=AssertionError("scan started")):
            with pytest.raises(BoundExceeded,
                               match="^equicontinuity pair-steps: size 15 "
                                     "exceeds bound 14$"):
                equicontinuity_modulus(rot, F(1, 2))
        bound(0)
        assert modulus(rot, F(1, 6))[0] == F(1, 6)
        # pair (0, 1) violates at step 2; the other 119 pairs are only read,
        # against 120 * 5 = 600 for every pair stepped in full
        assert mul_want == (F(1, 16), ("0", "1", 2))
        bound(122)
        assert modulus(mul, F(1, 4)) == mul_want
        bound(121)
        with pytest.raises(BoundExceeded, match="size 122 exceeds bound 121"):
            equicontinuity_modulus(mul, F(1, 4))


def rigid_time(sys, eps):
    """The witness n of the uniform-rigidity verdict."""
    v = is_uniformly_rigid(sys, eps)
    assert v.exact and v.note == f"eps={eps}"
    (key, n), = v.witnesses
    assert key == "witness_n" and v.holds == (n is not None)
    return n


class TestUniformRigidity:
    def test_identity_returns_one(self):
        assert rigid_time(make_multiply(5, 1), F(1, 10)) == 1

    def test_rotation_twelve(self):
        assert rigid_time(make_rotation(12, 1), F(1, 24)) == 12

    def test_halving_never_returns(self):
        assert rigid_time(make_grid_interval_map("half", 8),
                          F(1, 16)) is None

    def test_displacement_of_exactly_eps_does_not_count(self):
        # a quarter turn moves every point exactly 1/4
        assert rigid_time(make_rotation(4, 1), F(1, 4)) == 4


def test_rigidity_witness_matches_the_stepped_iterates():
    """The verdict reads pre + per + 1 curve entries; its witness is still
    the least n >= 1 whose iterate moves every point less than eps, over
    several clocks, and every verdict is exact."""
    rng = random.Random(13)
    for _ in range(20):
        sys = random_table_system(rng, 6)
        pre, per = sys.eventual_period()
        d = sys.space.d_by_index
        moves = [max(d(t, i) for i, t in enumerate(iterate(sys, n).table))
                 for n in range(3 * (pre + per) + 6)]
        for eps in distance_values(sys.space)[1:]:
            v = is_uniformly_rigid(sys, eps)
            n = next((n for n in range(1, len(moves)) if moves[n] < eps),
                     None)
            assert v.witnesses == (("witness_n", n),)
            assert v.horizon == pre + per + 1 and v.holds == (n is not None)
            assert v.exact


class TestProximality:
    def test_constant_map(self):
        sys = SystemMap(circle_space(4), (0, 0, 0, 0), label="const")
        assert is_proximal(sys).holds

    def test_halving_proximal(self):
        assert is_proximal(make_grid_interval_map("half", 8)).holds

    def test_rotation_not_proximal(self):
        v = is_proximal(make_rotation(4, 1))
        assert v.fails and v.counterexample

    def test_pair_checker(self):
        half = make_grid_interval_map("half", 8)
        assert is_proximal_pair(half, F(1), F(1, 2)).holds
        r = make_rotation(4, 1)
        v = is_proximal_pair(r, 0, 2)
        assert v.fails and v.exact and v.counterexample[-1] == "1/2"

    def test_pair_failure_short_of_the_period_is_not_exact(self):
        """The pair only merges at step 4; the checker reads the whole
        clock, so it never stops short of the merge with a failure."""
        half = make_grid_interval_map("half", 8)
        pre, per = half.eventual_period()
        merged = is_proximal_pair(half, F(0), F(1))
        assert merged.holds and merged.exact and merged.witnesses == ((4,),)
        assert merged.horizon == pre + per >= merged.witnesses[0][0]


class TestDiamDecay:
    def test_surjection_keeps_diameter(self):
        r = make_rotation(5, 1)
        assert set(diam_decay(r, 8)) == {r.space.diam}

    def test_halving_sequence(self):
        decay = diam_decay(make_grid_interval_map("half", 8))
        assert decay == [F(1), F(1, 2), F(1, 4), F(1, 8), F(0), F(0)]

    def test_constant_map_drops_immediately(self):
        sys = SystemMap(circle_space(4), (1, 1, 1, 1), label="const")
        decay = diam_decay(sys, 4)
        assert decay[0] == sys.space.diam
        assert decay[1:] == [F(0)] * 3

    def test_matches_the_stepped_images(self):
        """Only T^0 .. T^pre are stepped; every later entry must still be
        the diameter of the image set stepped that often."""
        rng = random.Random(7)
        for _ in range(25):
            sys = random_table_system(rng, 7)
            pre, per = sys.eventual_period()
            image, expected = frozenset(sys.space.points), []
            for _ in range(pre + per + 3):
                expected.append(max(sys.space.d(x, y)
                                    for x in image for y in image))
                image = image_points(sys, image)
            assert diam_decay(sys, len(expected)) == expected

    def test_monotone_nonincreasing(self):
        rng = random.Random(5)
        for _ in range(25):
            sys = random_table_system(rng, 7)
            decay = diam_decay(sys)
            assert all(a >= b for a, b in zip(decay, decay[1:]))


def test_hyper_proximality_iff_decay_reaches_zero():
    for sys in base_catalog():
        if len(sys.space.points) > 5:
            continue
        hyper = is_proximal(lift_system(sys))
        decay = diam_decay(sys)
        assert hyper.holds == (decay[-1] == 0), sys.label


class TestSensitivity:
    def test_identity_never_sensitive(self):
        assert is_sensitive(make_multiply(5, 1), F(1, 10)).fails

    def test_isometry_not_sensitive_with_certificate(self):
        v = is_sensitive(make_rotation(6, 1), F(1, 6))
        assert v.fails and v.counterexample

    def test_singleton_basis_blocks_escape(self):
        assert is_sensitive(make_multiply(9, 2), F(2, 9)).fails

    def test_expanding_map_sensitive_on_coarse_basis(self):
        sys = make_multiply(9, 2)
        space = sys.space
        basis = tuple(points_open(space, ball(space, x, F(2, 9)),
                                  label=f"B({x};2/9)")
                      for x in space.points)
        assert is_sensitive(sys, F(2, 9), basis=basis).holds

    def test_a_late_escape_counts(self):
        """No neighbor escapes at time 0, but one does later."""
        sys = make_grid_interval_map("tent", 8, "nearest")
        pts = sys.space.points
        basis = [pts[i:i + 2] for i in range(len(pts) - 1)]
        full = is_sensitive(sys, F(1, 8), basis=basis)
        assert full.holds and full.exact

    def test_a_pair_walk_steps_only_the_clock(self):
        """A pair walk reads no more distances than the clock needs: at
        most pre + per per pair it tests."""
        sys = make_rotation(12, 1)
        pre, per = sys.eventual_period()
        n_pts = len(sys.space)
        count = 0
        dist = sys.space.dist_int

        def spy(i, j):
            nonlocal count
            count += 1
            return dist(i, j)
        with mock.patch.object(sys.space, "dist_int", spy):
            v = is_sensitive(sys, F(1, 12))
        assert v.fails and v.exact and v.horizon == pre + per
        assert 0 < count <= n_pts * n_pts * (pre + per)


class TestPeriodicDensity:
    def test_bijections_hold(self):
        assert is_periodically_dense(make_rotation(7, 3)).holds

    def test_halving_fails_away_from_zero(self):
        v = is_periodically_dense(make_grid_interval_map("half", 8))
        assert v.fails

    def test_lift_verdicts_agree(self):
        for sys in (make_rotation(3, 1), make_grid_interval_map("half", 4)):
            hyper = is_periodically_dense(lift_system(sys))
            fuzzy = is_periodically_dense(
                fuzzy_lift_system(sys, LevelGrid(1), ("eq", F(1))))
            assert hyper.status == fuzzy.status, sys.label


class TestProductDyn:
    def test_exponent_scaling(self):
        r = make_rotation(4, 1)
        pd = ProductDyn([(TableDyn(r), 2)])
        u = next(iter(pd.default_basis()))
        v = [o for o in pd.default_basis()
             if o.parts[0].members == frozenset({2})][0]
        # (T^2)^n hits 2 from 0 when 2n = 2 mod 4
        times = return_time_set(pd, u, v, 8).sorted_members()
        assert times == [1, 3, 5, 7]

    def test_mixed_product_shift_and_cycle(self):
        sd = ShiftDyn(full_shift(2, 2), cylinder_length=2)
        pd = ProductDyn([(sd, 1), (TableDyn(make_rotation(3, 1)), 1)])
        assert pd.preperiod_period() == (2, 3) and not pd.exact_basis
        v = is_transitive(pd)
        assert v.holds and not v.exact and v.horizon == 5


def test_hyper_shift_vietoris_matches_subset_search():
    """The bipartite decision for Vietoris return times agrees with a
    direct search over finite subsets of truncated words."""
    shift = full_shift(2, 3)
    hd = HyperShiftDyn(shift, cylinder_length=2)
    words = shift.legal_words(3)

    def cyl_members(w):
        return [x for x in words if x.startswith(w)]

    def brute(u_words, v_words, n):
        u_sets = [cyl_members(w) for w in u_words]
        v_sets = [cyl_members(w) for w in v_words]
        union_u = set().union(*u_sets)
        # subsets of truncated words, one representative choice per slot
        for combo in itertools.product(*u_sets):
            base = set(combo)
            for extra in itertools.chain([()],
                                         itertools.combinations(union_u, 1)):
                candidate = base | set(extra)
                image = {w[n:] for w in candidate}
                # image words have length 3 - n; compare against prefixes
                covered = all(
                    any(iw.startswith(vw[:len(iw)]) and
                        vw[:len(iw)] == iw[:len(vw)][:len(iw)] or
                        iw.startswith(vw) or vw.startswith(iw)
                        for vw in v_words)
                    for iw in image)
                meets = all(
                    any(iw.startswith(vw) or vw.startswith(iw)
                        for iw in image)
                    for vw in v_words)
                if covered and meets:
                    return True
        return False

    basis = [b for b in hd.default_basis() if len(b.words) <= 2]
    for u in basis[:12]:
        for v in basis[:12]:
            times = return_time_set(hd, u, v, 2)
            for n in range(0, 2):
                got = n in times
                want = brute(u.words, v.words, n)
                assert got == want, (u, v, n)


# -- each oracle's return-time bitset against the definitions ----------------

def bit_members(bits, bound):
    assert 0 <= bits < 1 << bound
    return {n for n in range(bound) if bits >> n & 1}


def clock_bound(dyn) -> int:
    """pre + per of the oracle's clock, below which it answers."""
    return sum(dyn.preperiod_period())


@st.composite
def small_tables(draw, max_points=7):
    n = draw(st.integers(1, max_points))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return SystemMap(circle_space(n), table, label="random")


@st.composite
def point_sets(draw, sys):
    return draw(st.sets(st.sampled_from(sys.space.points), min_size=1))


@st.composite
def small_shifts(draw, resolutions=st.just(2)):
    """A shift on up to three symbols: a cycle through every symbol keeps
    each vertex in- and out-going, random edges come on top."""
    syms = "abc"[:draw(st.integers(1, 3))]
    cycle = {(a, syms[(i + 1) % len(syms)]) for i, a in enumerate(syms)}
    extra = draw(st.sets(st.tuples(st.sampled_from(syms),
                                   st.sampled_from(syms))))
    return ShiftSystem(syms, cycle | extra, resolution=draw(resolutions))


class TestOracleBitsets:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_folds_the_period(self, data):
        sys = data.draw(small_tables())
        u, v = data.draw(point_sets(sys)), data.draw(point_sets(sys))
        pre, per = sys.eventual_period()
        bound = pre + per + data.draw(st.integers(0, 3 * per + 2))
        times = return_time_set(TableDyn(sys), points_open(sys.space, u),
                                points_open(sys.space, v), bound)
        assert times.members == brute_return_times(sys, u, v, bound)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shift_matches_word_enumeration(self, data):
        shift = data.draw(small_shifts(st.integers(1, 3)))
        words = shift.cylinders(shift.resolution)
        u, v = data.draw(st.sampled_from(words)), data.draw(
            st.sampled_from(words))
        bound = data.draw(st.integers(1, 6))
        times = return_time_set(ShiftDyn(shift), CylinderOpen(u),
                                CylinderOpen(v), bound)
        assert times.members == {
            n for n in range(bound) if shift_brute_member(shift, u, v, n)}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_dilates_each_factor(self, data):
        factors = data.draw(st.lists(
            st.tuples(small_tables(5), st.integers(1, 3)),
            min_size=1, max_size=2))
        opens = [(data.draw(point_sets(sys)), data.draw(point_sets(sys)))
                 for sys, _ in factors]
        bounds = data.draw(st.lists(st.integers(1, 16), min_size=2,
                                    max_size=2))
        pd = ProductDyn([(TableDyn(sys), a) for sys, a in factors])
        u = ProductOpen(tuple(points_open(sys.space, pu)
                              for (sys, _), (pu, _) in zip(factors, opens)))
        v = ProductOpen(tuple(points_open(sys.space, pv)
                              for (sys, _), (_, pv) in zip(factors, opens)))
        for bound in bounds:     # one oracle read at two horizons
            factor_times = [brute_return_times(sys, pu, pv, a * bound)
                            for (sys, a), (pu, pv) in zip(factors, opens)]
            want = {n for n in range(bound)
                    if all(a * n in times for (_, a), times
                           in zip(factors, factor_times))}
            assert return_time_set(pd, u, v, bound).members == want

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_vietoris_matches_rows_and_columns(self, data):
        shift = data.draw(small_shifts())
        words = shift.cylinders(2)
        u_words = tuple(data.draw(st.lists(st.sampled_from(words),
                                           min_size=1, max_size=2)))
        v_words = tuple(data.draw(st.lists(st.sampled_from(words),
                                           min_size=1, max_size=2)))
        bound = data.draw(st.integers(1, 5))
        times = return_time_set(HyperShiftDyn(shift), VietorisOpen(u_words),
                                VietorisOpen(v_words), bound)

        def meets(a, b, n):
            return shift_brute_member(shift, a, b, n)

        want = {n for n in range(bound)
                if all(any(meets(a, b, n) for b in v_words) for a in u_words)
                and all(any(meets(a, b, n) for a in u_words)
                        for b in v_words)}
        assert times.members == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_vietoris_rows_match_the_membership_rule(self, data):
        """Whole rows of the hyperspace oracle, entry by entry: n is in
        N(U, V) iff every U_i meets some V_j at time n and every V_j is met
        by some U_i, for every n below the clock.  The basis is a caller's,
        of opens with 1-3 words in any order and with repeats, or the
        default one at 3 components."""
        shift = data.draw(small_shifts())
        hyper = HyperShiftDyn(shift,
                              cylinder_length=data.draw(st.integers(1, 2)),
                              max_components=3)
        words = shift.cylinders(hyper.cylinder_length)
        if len(words) <= 6 and data.draw(st.booleans()):
            basis = hyper.default_basis()
        else:
            basis = [VietorisOpen(tuple(ws)) for ws in data.draw(st.lists(
                st.lists(st.sampled_from(words), min_size=1, max_size=3),
                min_size=1, max_size=6))]
        bound = clock_bound(hyper)
        used = {w for u in basis for w in u.words}
        meets = {(a, b): {n for n in range(bound)
                          if shift_brute_member(shift, a, b, n)}
                 for a in used for b in used}

        def want(u, v):
            return {n for n in range(bound)
                    if all(any(n in meets[a, b] for b in v.words)
                           for a in u.words)
                    and all(any(n in meets[a, b] for a in u.words)
                            for b in v.words)}

        rows = list(hyper.rows(basis))
        assert len(rows) == len(basis)
        for u, row in zip(basis, rows):
            assert [bit_members(bits, bound) for bits in row] == [
                want(u, v) for v in basis]

    def test_vietoris_rows_past_the_fold_depth(self):
        """An open of more distinct words than a fold nests lazily reads
        some partial folds into lists; its rows still match the pairwise
        rule, which ``return_times`` reads without a fold."""
        hyper = HyperShiftDyn(full_shift(2, 7), cylinder_length=7)
        words = tuple(hyper.shift.cylinders(7))
        assert len(words) > oracles._FOLD_DEPTH
        basis = [VietorisOpen(words), VietorisOpen(words[:1]),
                 VietorisOpen(tuple(reversed(words[:70])) + words[:3])]
        for u, row in zip(basis, hyper.rows(basis)):
            assert list(row) == [hyper.return_times(u, v) for v in basis]

    def test_a_long_open_reads_in_a_child(self, tmp_path):
        """A chain of 100,000 lazy maps overflows the C stack when read, so
        an open of 100,000 repeated words, and a fold of 200,000 lists, run
        in a child interpreter that such a chain would crash."""
        code = ("import operator\n"
                "from fuzzdyn.analysis import is_transitive\n"
                "from fuzzdyn.oracles import (HyperShiftDyn, VietorisOpen,"
                " _fold)\n"
                "from fuzzdyn.symbolic import full_shift\n"
                "u = VietorisOpen(('0',) * 100_000)\n"
                "print(is_transitive(HyperShiftDyn(full_shift(2, 3)),"
                " basis=[u]).status)\n"
                "print(*_fold(operator.and_, [[1]] * 200_000))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(oracles.__file__))))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["holds", "1"]


@st.composite
def seam_factors(draw):
    """A factor with an exponent of 1-3 and two of its opens: a table of at
    most 4 points with two point sets, or a vertex shift of at most 4
    symbols with two of its cylinders; and its brute member test of a
    factor time, by ``brute_return_times`` or ``shift_brute_member``."""
    a = draw(st.integers(1, 3))
    if draw(st.booleans()):
        sys = draw(small_tables(4))
        u, v = draw(point_sets(sys)), draw(point_sets(sys))

        def member(n):
            return n in brute_return_times(sys, u, v, n + 1)
        return (TableDyn(sys), a, points_open(sys.space, u),
                points_open(sys.space, v), member)
    shift = draw(vertex_shifts())
    words = st.sampled_from(shift.cylinders(shift.resolution))
    u, v = draw(words), draw(words)
    return (ShiftDyn(shift), a, CylinderOpen(u), CylinderOpen(v),
            functools.partial(shift_brute_member, shift, u, v))


@settings(max_examples=60, deadline=None)
@given(st.lists(seam_factors(), min_size=1, max_size=3))
def test_product_reads_each_factor_past_its_own_clock(factors):
    """A product answers below its clock from factor sets below their own
    clocks: n < pre + 3 * per + 2 is a return time of a box iff a * n is
    one of each factor, by brute factor times, for tables and shifts
    mixed, so that the factors' clocks differ from the product's."""
    pd = ProductDyn([(dyn, a) for dyn, a, *_ in factors])
    pre, per = pd.preperiod_period()
    horizon = pre + 3 * per + 2
    u = ProductOpen(tuple(f[2] for f in factors))
    v = ProductOpen(tuple(f[3] for f in factors))
    event("a factor's clock differs" if any(
        (a, dyn.preperiod_period()) != (1, (pre, per))
        for dyn, a, *_ in factors) else "every clock is the product's")
    want = {n for n in range(horizon)
            if all(member(a * n) for _, a, _, _, member in factors)}
    assert return_time_set(pd, u, v, horizon).members == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(small_tables(5), st.integers(1, 3)),
                min_size=1, max_size=3))
def test_table_product_oracle_matches_the_materialized_product(factors):
    """Transitivity of a product of table oracles, scanned over its box
    basis, equals transitivity of the materialized product system, scanned
    over its singleton basis."""
    pd = ProductDyn([(TableDyn(sys), a) for sys, a in factors])
    oracle = is_transitive(pd)
    assert oracle == is_transitive(product_system(factors))
    scan = is_transitive(pd, basis=pd.default_basis())
    assert (scan.status, scan.exact, scan.horizon, scan.counterexample) == \
        (oracle.status, oracle.exact, oracle.horizon, oracle.counterexample)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    small_tables(6).map(TableDyn),
    st.lists(st.tuples(small_tables(4), st.integers(1, 3)),
             min_size=1, max_size=3).map(
        lambda fs: ProductDyn([(TableDyn(sys), a) for sys, a in fs]))))
def test_transitivity_scan_matches_the_orbit_walk(dyn):
    """The return-time scan and the state-by-state orbit walk agree on
    tables and on products of one to three tables, exponents 1 to 3."""
    got, want = is_transitive(dyn), brute_transitive(dyn)
    assert (got.status, got.exact, got.horizon, got.counterexample,
            got.note) == (want.status, want.exact, want.horizon,
                          want.counterexample, want.note)


@settings(max_examples=40, deadline=None)
@given(small_tables(7))
def test_proximality_matches_the_pairwise_definition(sys):
    """One T^preperiod image decides proximality of every pair, with the
    counterexample and liminf of a pair-by-pair scan; on the system and on
    its subset lift."""
    for target in (sys, lift_system(sys)):
        assert is_proximal(target) == brute_proximal(target), target.table


def test_table_checkers_reject_a_basis_that_misses_points():
    r = make_rotation(4, 1)
    partial = [points_open(r.space, [0])]
    thick = FamilyClassifier("thick")
    for check in (lambda: is_transitive(r, basis=partial),
                  lambda: is_weakly_mixing(r, basis=partial),
                  lambda: is_weakly_mixing(r, basis=partial, method="lemma"),
                  lambda: is_mixing(r, basis=partial),
                  lambda: is_F_transitive(r, thick, basis=partial),
                  lambda: is_F_transitive(r, thick, basis=partial,
                                          mixing=True)):
        with pytest.raises(InputError):
            check()


class TestSingletonBasis:
    def test_opens_built_on_access_and_kept(self):
        space = circle_space(5)
        basis = _SingletonBasis(space)
        assert len(basis) == 5
        assert basis[2] is basis[2]
        assert basis[-1] is basis[4]
        assert [u.indices for u in basis] == [frozenset({i})
                                             for i in range(5)]
        assert basis[3].label == "B(3)"
        with pytest.raises(IndexError):
            basis[5]


# -- oracle rows against pairwise return times -------------------------------

@st.composite
def pointwise_bases(draw, sys):
    """The singleton basis, or a few random point sets and one open holding
    every point they miss."""
    if draw(st.booleans()):
        return _SingletonBasis(sys.space)
    opens = [points_open(sys.space, data) for data in
             draw(st.lists(point_sets(sys), max_size=3))]
    covered = set().union(*(u.members for u in opens))
    rest = [p for p in sys.space.points if p not in covered]
    return tuple(opens) + ((points_open(sys.space, rest),) if rest else ())


@st.composite
def factor_oracles(draw, max_points=6, max_length=3):
    """A table oracle with a pointwise basis, or the oracle of a shift of
    resolution at most 3 with its cylinder basis."""
    if draw(st.booleans()):
        sys = draw(small_tables(max_points))
        return TableDyn(sys), draw(pointwise_bases(sys))
    shift = draw(small_shifts(st.integers(1, 3)))
    dyn = ShiftDyn(shift, cylinder_length=draw(st.integers(1, max_length)))
    return dyn, dyn.default_basis()


def assert_rows_equal_pairs(dyn, basis):
    """Each row is the oracle's pair reads, each below its clock."""
    for u, row in zip(basis, dyn.rows(basis)):
        row = list(row)
        assert row == [dyn.return_times(u, v) for v in basis]
        assert all(0 <= bits < 1 << clock_bound(dyn) for bits in row)


class TestOracleRows:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_rows_match_the_definition(self, data):
        sys = data.draw(small_tables(6))
        basis = data.draw(pointwise_bases(sys))
        dyn = TableDyn(sys)
        bound = clock_bound(dyn)
        for u, row in zip(basis, dyn.rows(basis)):
            assert [bit_members(bits, bound) for bits in row] == [
                brute_return_times(sys, u.members, v.members, bound)
                for v in basis]
        assert_rows_equal_pairs(dyn, basis)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_shift_and_vietoris_rows_equal_pairs(self, data):
        shift = data.draw(small_shifts(st.integers(1, 3)))
        dyn = ShiftDyn(shift)
        assert_rows_equal_pairs(dyn, dyn.default_basis())
        hyper = HyperShiftDyn(shift, cylinder_length=2)
        basis = data.draw(st.lists(st.sampled_from(hyper.default_basis()),
                                   min_size=1, max_size=8))
        assert_rows_equal_pairs(hyper, basis)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_box_rows_equal_pairs(self, data):
        """Mixed products of one to three factors with exponents 1 to 3,
        each box row read off the factor rows."""
        factors = data.draw(st.lists(factor_oracles(), min_size=1,
                                     max_size=3))
        pd = ProductDyn([(dyn, data.draw(st.integers(1, 3)))
                         for dyn, _ in factors])
        bases = tuple(tuple(data.draw(st.lists(st.sampled_from(list(b)),
                                               min_size=1, max_size=3)))
                      for _, b in factors)
        assert_rows_equal_pairs(pd, _BoxBasis(bases))
        for (dyn, _), basis in zip(factors, bases):
            assert_rows_equal_pairs(dyn, basis)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_overlap_lemma_reads_the_diagonal_of_each_row(self, data):
        """The lemma takes N(U, U) from row U of the scan: its verdict is
        the pairwise overlap scan's, witnesses and counterexample
        included."""
        dyn, basis = data.draw(factor_oracles(max_points=5, max_length=2))
        got = is_weakly_mixing(dyn, basis=basis, method="lemma")
        bound, found, witnesses = got.horizon, None, []
        for u, v in itertools.product(basis, basis):
            both = (return_time_set(dyn, u, u, bound).bits
                    & return_time_set(dyn, u, v, bound).bits)
            if not both:
                found = (u.label, v.label)
                break
            witnesses.append((u.label, v.label,
                              (both & -both).bit_length() - 1))
        assert got.counterexample == found
        assert got.fails == (found is not None)
        if found is None:
            assert got.witnesses == tuple(witnesses[:8])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_box_scan_verdicts_equal_pairwise_verdicts(self, data):
        """The default box basis (row route) and the same boxes as a tuple
        (pairwise route) give equal verdicts, counterexamples included."""
        count = data.draw(st.integers(1, 3))
        factors = data.draw(st.lists(
            factor_oracles(max_points=(6, 4, 3)[count - 1],
                           max_length=(3, 2, 1)[count - 1]),
            min_size=count, max_size=count))
        pd = ProductDyn([(dyn, data.draw(st.integers(1, 3)))
                         for dyn, _ in factors])
        family = FamilyClassifier(data.draw(st.sampled_from(
            ("thick", "syndetic", "infinite", "cofinite", "ip"))))
        boxes = pd.default_basis()
        assert isinstance(boxes, _BoxBasis)
        assert tuple(boxes) == tuple(boxes[i] for i in range(len(boxes)))
        for check in (is_transitive, is_mixing,
                      lambda t, **kw: is_F_transitive(t, family, **kw)):
            assert check(pd, basis=boxes) == check(pd, basis=tuple(boxes))


class TestOracleMemory:
    def test_shift_memo_never_skips_validation(self):
        """The oracles of one shift share its word-pair memo; a pair with an
        illegal word never enters it, so every such call raises."""
        shift = ShiftSystem("ab", [("a", "b"), ("b", "a")], resolution=2)
        sd, hd = ShiftDyn(shift), HyperShiftDyn(shift)
        legal, illegal = CylinderOpen("ab"), CylinderOpen("aa")
        for _ in range(2):
            for u, v in ((legal, illegal), (illegal, legal)):
                with pytest.raises(InputError):
                    sd.return_times(u, v)
        assert shift._pairs == {}
        for _ in range(2):
            with pytest.raises(InputError):
                hd.return_times(VietorisOpen(("ab",)),
                                VietorisOpen(("ba", "aa")))
        assert list(shift._pairs) == [("ab", "ba")]
        assert sd.return_times(legal, CylinderOpen("ba")) == \
            hd.return_times(VietorisOpen(("ab",)), VietorisOpen(("ba",)))
        assert list(shift._pairs) == [("ab", "ba")]

    def test_empty_vietoris_open_is_an_input_error(self):
        # as a source its row once raised a TypeError from an empty reduce
        hd = HyperShiftDyn(full_shift(2, 2))
        for u, v in (((), ("0",)), (("0",), ())):
            with pytest.raises(InputError, match="^empty open rejected$"):
                hd.return_times(VietorisOpen(u), VietorisOpen(v))

    def test_a_word_is_no_vietoris_open(self):
        # a bare word names a base cylinder; on the hyperspace oracle it
        # once reached the row as a CylinderOpen and raised AttributeError
        hd = HyperShiftDyn(full_shift(2, 2))
        with pytest.raises(InputError, match="^cannot interpret '0'"):
            return_time_set(hd, "0", VietorisOpen(("1",)))

    @pytest.mark.parametrize("dyn, basis", [
        (ShiftDyn(full_shift(2, 3)), []),
        (ShiftDyn(full_shift(2, 3), cylinder_length=0), None),
        (HyperShiftDyn(full_shift(2, 3), max_components=0), None),
    ], ids=["caller", "no-cylinders", "no-components"])
    def test_empty_shift_basis_is_an_input_error(self, dyn, basis):
        """A scan over no opens would hold vacuously: a caller's empty
        basis, an empty default and the boxes of an empty factor basis are
        each rejected, as a table's empty basis is."""
        syndetic = FamilyClassifier("syndetic")
        checks = [is_transitive, is_mixing, is_weakly_mixing,
                  lambda t, **kw: is_weakly_mixing(t, method="lemma", **kw),
                  lambda t, **kw: is_F_transitive(t, syndetic, **kw),
                  lambda t, **kw: is_F_transitive(t, syndetic, mixing=True,
                                                  **kw)]
        if basis is None:       # the product's default boxes
            checks.append(lambda t, **kw: is_a_transitive(t, (1, 2)))
        for check in checks:
            with pytest.raises(InputError, match="^empty basis$"):
                check(dyn, basis=basis)

    def test_shift_memo_holds_one_bitset_per_word_pair(self):
        """Two checks and two oracles over one shift keep one bitset per
        word pair, below the shift's clock."""
        shift = full_shift(2, 3)
        hd = HyperShiftDyn(shift)
        is_mixing(hd)
        is_transitive(hd)
        for row in ShiftDyn(shift).rows(ShiftDyn(shift).default_basis()):
            list(row)
        cylinders = len(shift.cylinders(hd.cylinder_length))
        assert len(shift._pairs) == cylinders ** 2
        assert all(0 <= bits < 1 << sum(shift.clock())
                   for bits in shift._pairs.values())

    def test_product_basis_builds_only_the_opens_it_reads(self, monkeypatch):
        """A product check that fails at its first pair reads one box, so it
        builds one singleton open per factor basis."""
        built = []

        class CountingOpen(oracles._SingletonOpen):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(oracles, "_SingletonOpen", CountingOpen)
        lift = fuzzy_lift_system(make_rotation(5, 1), LevelGrid(2),
                                 ("eq", F(1)))
        v = is_F_transitive(lift, FamilyClassifier("thick"), mixing=True)
        assert v.fails
        u, w = v.counterexample
        assert u == w == "B(((0,0,0,0,1),(0,0,0,0,1)))"
        assert len(built) == 2

    def test_scans_build_opens_only_to_label(self, monkeypatch):
        """A transitivity scan that holds reads every pair by index; only
        the 8 witnesses build opens, two boxes or two balls each."""
        boxes, balls = [], []

        class CountingBox(ProductOpen):
            def __init__(self, parts):
                boxes.append(parts)
                super().__init__(parts)

        class CountingBall(oracles._SingletonOpen):
            __slots__ = ()

            def __init__(self, *args):
                balls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(oracles, "ProductOpen", CountingBox)
        monkeypatch.setattr(oracles, "_SingletonOpen", CountingBall)
        pd = ProductDyn([(TableDyn(make_rotation(5, 1)), 1),
                         (TableDyn(make_rotation(7, 1)), 1)])
        v = is_transitive(pd)
        assert v.holds and len(v.witnesses) == 8
        assert len(boxes) == 16
        balls.clear()
        v = is_transitive(make_rotation(40, 1))
        assert v.holds and len(v.witnesses) == 8
        assert len(balls) == 8

    def test_nested_product_basis_reads_boxes_by_index(self):
        inner = ProductDyn([(TableDyn(make_rotation(2, 1)), 1),
                            (ShiftDyn(full_shift(2, 1)), 1)])
        outer = ProductDyn([(inner, 1), (TableDyn(make_rotation(3, 1)), 1)])
        boxes = outer.default_basis()
        flat = tuple(boxes)
        assert len(flat) == len(boxes) == 12
        assert flat == tuple(boxes[i] for i in range(-12, 0))
        assert boxes[5].label == "((B(0),[1]),B(2))"
        for check in (is_transitive, is_mixing):
            assert check(outer) == check(outer, basis=flat)

    def test_product_keeps_no_pair_state(self):
        """Factor rows live only inside a scan: after it, or once it is
        closed, the product oracle holds its factors and nothing else."""
        def live_rows():
            gc.collect()
            return sum(isinstance(o, _LazyRow) for o in gc.get_objects())

        pd = ProductDyn([(ShiftDyn(full_shift(2, 2)), 1),
                         (TableDyn(make_rotation(3, 1)), 2)])
        before = live_rows()
        assert is_transitive(pd).holds
        assert is_mixing(pd).fails
        assert vars(pd) == {"factors": pd.factors}
        pairs = _scan(pd, pd.default_basis(), analysis._empty)
        next(pairs)
        assert live_rows() > before
        pairs.close()
        assert live_rows() == before


def discrete_system(table) -> SystemMap:
    """A table map on the points 0 .. n-1 under the 0/1 metric, read
    lazily, so a large one costs no distance matrix."""
    n = len(table)
    space = MetricSpace(range(n), fn=lambda i, j: int(i != j), denom=1,
                        diam=1, gap=1, label=f"discrete({n})")
    return SystemMap(space, table, label=f"discrete({n})")


def chunk_lengths(total: int, first: int, cap: int) -> list[int]:
    out, size = [], first
    while total > 0:
        out.append(min(size, total))
        total -= out[-1]
        size = min(2 * size, cap)
    return out


class TestChunkedScan:
    """Scans hand checkers each row in chunks of doubling length up to a
    cap; every verdict is the pair-by-pair scan's."""

    def test_transitivity_fails_past_the_cap(self):
        """A rotation of cap + 6 points and one fixed point: the first
        failing pair is the last of row 0, inside the first chunk at the
        cap."""
        n = analysis._CHUNK_CAP + 6
        sys = discrete_system([(i + 1) % n for i in range(n)] + [n])
        v = is_transitive(sys)
        assert v == brute_transitive(TableDyn(sys))
        assert v.counterexample == ("B(0)", f"B({n})")

    def test_tail_checks_fail_past_the_cap(self):
        """0 and 1 swap and every spoke maps to 0 (pre 1, period 2).  Row
        {0,1} meets {0,1} and each {0, spoke} at every time, then misses
        {2}, the basis open just past cap + 6 spokes."""
        spokes = analysis._CHUNK_CAP + 6
        sys = discrete_system([1, 0] + [0] * spokes)
        space = sys.space
        basis = ([points_open(space, [0, 1])]
                 + [points_open(space, [0, k]) for k in range(2, spokes + 2)]
                 + [points_open(space, [2])])
        assert is_transitive(sys, basis=basis).counterexample == \
            pairwise_transitive(sys, basis) == ("{0,1}", "{2}")
        assert is_mixing(sys, basis=basis).counterexample == \
            pairwise_mixing(sys, basis) == ("{0,1}", "{2}", 1)
        for kind, full in (("thick", True), ("syndetic", False)):
            v = is_F_transitive(sys, FamilyClassifier(kind), basis=basis)
            assert v.exact
            assert v.counterexample == pairwise_tail(sys, basis, full) == \
                ("{0,1}", "{2}")

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_small_chunks_keep_the_pairwise_answers(self, data):
        """With chunks of 1, 2, 2, ... every row splits, and each checker
        still answers as the pair-by-pair scan does; the chunks of a row
        concatenate to the row."""
        sys = data.draw(small_tables(6))
        basis = data.draw(pointwise_bases(sys))
        other = data.draw(small_tables(4))
        product = ProductDyn([(TableDyn(sys), 1), (TableDyn(other), 1)])
        ip = FamilyClassifier("ip")
        checks = (
            lambda: is_transitive(sys, basis=basis),
            lambda: is_mixing(sys, basis=basis),
            lambda: is_F_transitive(sys, FamilyClassifier("thick"),
                                    basis=basis),
            lambda: is_F_transitive(sys, FamilyClassifier("syndetic"),
                                    basis=basis),
            lambda: is_weakly_mixing(sys, basis=basis, method="lemma"),
            lambda: is_transitive(product),
            lambda: is_F_transitive(sys, ip, basis=basis))
        with mock.patch.multiple(analysis, _FIRST_CHUNK=1, _CHUNK_CAP=2):
            small = [check() for check in checks]
            scan = list(_scan(TableDyn(sys), basis, analysis._empty))
        assert small == [check() for check in checks]
        for i, u in enumerate(basis):
            row = [(j0, chunk) for k, j0, chunk in scan if k == i]
            assert [len(chunk) for _, chunk in row] == \
                chunk_lengths(len(basis), 1, 2)
            assert [j0 for j0, _ in row] == list(itertools.accumulate(
                [0] + [len(chunk) for _, chunk in row[:-1]]))
            assert [bits for _, chunk in row for bits in chunk] == \
                [TableDyn(sys).return_times(u, v) for v in basis]
        transitive, mixing, thick, syndetic = small[:4]
        expect = pairwise_transitive(sys, basis)
        if transitive.holds:
            assert transitive.witnesses == expect
        else:
            assert transitive.counterexample == expect
        assert mixing.counterexample == pairwise_mixing(sys, basis)
        assert thick.counterexample == pairwise_tail(sys, basis, True)
        assert syndetic.counterexample == pairwise_tail(sys, basis, False)
        brute = brute_transitive(product)
        assert small[5].counterexample == brute.counterexample
        assert small[5].holds == brute.holds
        found = pairwise_first_failure(
            sys, basis, lambda times, pre, per: brute_ip_search(
                sum(1 << n for n in times), pre, per))
        assert small[6].exact
        assert small[6].counterexample == (found and found[:2])

    def test_early_product_failure_reads_few_factor_entries(self):
        """A product of two non-transitive lifts fails in its first box
        row: the scan reads a bounded number of factor entries, where a
        whole box row would read every state of the second lift."""
        class CountingDyn(TableDyn):
            def __init__(self, sys):
                super().__init__(sys)
                self.read = 0

            def rows(self, basis):
                return map(self._count, super().rows(basis))

            def _count(self, row):
                for bits in row:
                    self.read += 1
                    yield bits

        a = CountingDyn(fuzzy_lift_system(make_rotation(5, 1), LevelGrid(2)))
        b = CountingDyn(fuzzy_lift_system(make_rotation(4, 1), LevelGrid(2)))
        v = is_transitive(ProductDyn([(a, 1), (b, 1)]))
        assert v.fails and len(b.sys.space) == 81
        assert a.read + b.read <= 16

    def test_exhausted_factor_row_reads_its_kept_list(self):
        row = _LazyRow(iter([3, 1, 2]))
        first = iter(row)
        assert next(first) == 3
        assert list(row) == [3, 1, 2]           # resumes the source
        assert type(iter(row)) is type(iter([]))
        assert list(row) == [3, 1, 2]


@st.composite
def mixed_factors(draw):
    """A factor oracle of any kind with a basis: a table with a pointwise
    basis, a shift with its cylinders, or the hyperspace of a shift with
    some of its Vietoris opens over cylinders of length 1-2."""
    if draw(st.booleans()):
        return draw(factor_oracles(max_points=4, max_length=2))
    hyper = HyperShiftDyn(draw(small_shifts(st.integers(1, 2))),
                          cylinder_length=draw(st.integers(1, 2)))
    basis = draw(st.lists(st.sampled_from(hyper.default_basis()),
                          min_size=1, max_size=4, unique=True))
    return hyper, tuple(basis)


@st.composite
def later_factors(draw):
    """A factor with at least two opens whose first open passes in many
    checks: a table (a cycle, which an exponent may split, another
    permutation or any map) with the whole space X first, one to three
    times, and random opens after it (T^0(X) meets every open), or a shift
    or the hyperspace of a shift as in ``mixed_factors``."""
    if draw(st.booleans()):
        return draw(mixed_factors().filter(lambda f: len(f[1]) > 1))
    n = draw(st.integers(2, 4))
    sys = SystemMap(circle_space(n), draw(
        st.just([*range(1, n), 0]) | st.permutations(range(n))
        | st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    whole = points_open(sys.space, sys.space.points)
    rest = draw(st.lists(point_sets(sys) | st.sampled_from(
        sys.space.points).map(lambda p: [p]), min_size=1, max_size=3))
    return TableDyn(sys), (whole,) * draw(st.integers(1, 3)) + tuple(
        points_open(sys.space, members) for members in rest)


@st.composite
def reaching_factors(draw):
    """(oracle, basis, exponent) of the factors of a product: a rotation
    with its singletons and an exponent prime to its length, so that its
    sets are all nonempty, then one or two ``later_factors`` with exponents
    1-3.  The first box rows of such a product often pass, so its scans
    reach the value pass; one that fails there often fails only on a later
    factor's values, past the pass."""
    n = draw(st.integers(2, 5))
    sys = make_rotation(n, 1)
    prime = [e for e in (1, 2, 3) if math.gcd(e, n) == 1]
    first = (TableDyn(sys), _SingletonBasis(sys.space),
             draw(st.sampled_from(prime)))
    return [first] + [(dyn, basis, draw(st.integers(1, 3))) for dyn, basis
                      in draw(st.lists(later_factors(), min_size=1,
                                       max_size=2))]


class _ScanSpy:
    """Counts what the scans run under it read: the chunks (``steps``) and
    their sets, and what the value pass did: how often
    ``ProductDyn.box_values`` ran (``built``) and gave up, and how often a
    scan yielded the values, decided.  ``before_pass`` lists, for each box
    scan, the sets it read before its value pass ran, or in all if none
    ran."""

    def __init__(self):
        self.steps = self.sets = self.built = self.gave_up = self.decided = 0
        self.before_pass = []

    def __enter__(self):
        box_values, scan = ProductDyn.box_values, analysis._scan

        def counted_values(oracle, *args):
            sets = box_values(oracle, *args)
            self.built += 1
            self.gave_up += sets is None
            return sets

        def counted_scan(*args):
            built, read = self.built, 0
            try:
                for step in scan(*args):
                    self.steps += 1
                    self.sets += len(step[2])
                    self.decided += step[0] is None
                    if self.built == built:
                        read += len(step[2])
                    yield step
            finally:
                if isinstance(args[1], _BoxBasis):
                    self.before_pass.append(read)
        self._patches = (mock.patch.object(ProductDyn, "box_values",
                                           counted_values),
                         mock.patch.object(analysis, "_scan", counted_scan))
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()

    def event(self) -> str:
        if not self.built:
            return "no value pass"
        if self.decided:
            return "a value pass decided a scan"
        if self.built > self.gave_up:
            return "value passes failed; the ordered scans went on"
        return "value passes gave up"


class TestBoxClasses:
    """Once a product scan over boxes has read as many sets as its
    factors' pairs, the value pass decides it when no value fails; every
    verdict is the pair-by-pair scan's."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_class_scan_keeps_the_pairwise_answers(self, data):
        """Products of 1-3 factors of mixed kinds with exponents 1-3: each
        checker that scans gives the verdict of the same boxes read pair
        by pair through ``ProductDyn.return_times``, at the real chunk
        sizes and at chunks of 1, 2, 2, ...  Half of the products are of
        factors whose first opens pass, so that their scans reach the value
        pass, both holding and failing past it on a later factor's values;
        an event records what the pass did, and no scan reads a chunk
        more than the factors' pairs before the pass runs."""
        factors = data.draw(reaching_factors() | st.lists(st.tuples(
            mixed_factors(), st.integers(1, 3)).map(lambda f: (*f[0], f[1])),
            min_size=1, max_size=3))
        pd = ProductDyn([(dyn, a) for dyn, _, a in factors])
        boxes = _BoxBasis(tuple(basis for _, basis, _ in factors))
        pairwise = PairwiseProduct(pd)
        family = FamilyClassifier(data.draw(st.sampled_from(
            ("thick", "syndetic", "infinite"))))
        ip = FamilyClassifier("ip")
        checks = (is_transitive, is_mixing,
                  lambda t, **kw: is_F_transitive(t, family, **kw),
                  lambda t, **kw: is_F_transitive(t, ip, **kw))
        expect = [check(pairwise, basis=tuple(boxes)) for check in checks]
        with _ScanSpy() as spy:
            assert [check(pd, basis=boxes) for check in checks] == expect
        event(spy.event())
        # the pass runs within a chunk of reaching the factors' pairs
        pairs = sum(len(basis) ** 2 for basis in boxes.bases)
        assert max(spy.before_pass) < pairs + analysis._CHUNK_CAP
        with mock.patch.multiple(analysis, _FIRST_CHUNK=1, _CHUNK_CAP=2):
            assert [check(pd, basis=boxes) for check in checks] == expect
        # a holding family check is witnessed by its family alone
        for v, fam in zip(expect[2:], (family, ip)):
            if v.holds:
                assert v.witnesses == (("family", fam.kind),)

    def test_holding_product_builds_only_the_window_rows(self, monkeypatch):
        """A product of two rotations over its boxes has n * m sets a box
        row and n^2 + m^2 factor pairs, so its scan reaches the value pass
        in its third box row: a holding transitivity or syndetic check
        builds those three box rows, and the pass decides the rest."""
        built = []
        product = oracles._box_row

        def counting(seqs, *rest):
            if not rest:        # a box row; inner calls pass acc
                built.append(seqs)
            return product(seqs, *rest)

        monkeypatch.setattr(oracles, "_box_row", counting)
        pd = ProductDyn([(TableDyn(make_rotation(5, 1)), 1),
                         (TableDyn(make_rotation(7, 1)), 1)])
        v = is_transitive(pd)
        assert v.holds and v.exact and len(built) == 3
        assert v == is_transitive(PairwiseProduct(pd))
        built.clear()
        v = weakly_disjoint(make_rotation(80, 1), make_rotation(81, 1))
        assert v.holds and v.exact and len(v.witnesses) == 8
        assert len(built) == 3
        built.clear()
        syndetic = FamilyClassifier("syndetic")
        v = is_F_transitive(pd, syndetic)
        assert v.holds and v.exact and len(built) == 3
        assert v == is_F_transitive(PairwiseProduct(pd), syndetic)

    def test_failing_row_past_the_window_is_read_in_order(self):
        """rotation(2) x (0 -> 1 -> 2 -> 1) over the opens {0,1,2}, {1,2},
        {1}, {2}: the first box row fills the window, the second passes,
        and the third fails, since 1 is sent into {2} only at odd times,
        and is read to find its first failing box."""
        sys = discrete_system([1, 2, 1])
        opens = tuple(points_open(sys.space, members)
                      for members in ([0, 1, 2], [1, 2], [1], [2]))
        rotation = TableDyn(make_rotation(2, 1))
        pd = ProductDyn([(rotation, 1), (TableDyn(sys), 1)])
        boxes = _BoxBasis((rotation.default_basis(), opens))
        v = is_transitive(pd, basis=boxes)
        assert v == is_transitive(PairwiseProduct(pd), basis=tuple(boxes))
        assert v.counterexample == ("(B(0),{1})", "(B(0),{2})")
        with mock.patch.multiple(analysis, _FIRST_CHUNK=1, _CHUNK_CAP=2):
            assert is_transitive(pd, basis=boxes) == v

    def test_failing_row_past_the_window_reads_one_chunk(self, monkeypatch):
        """rotation(5) x (the identity on 40 points) over the opens X, {0},
        {1}, ...: the first box row fills the window, and the second fails
        at its third box.  The scan reads one chunk of that box row, not
        its 5 * 41 boxes, and pulls the factor entries of the boxes it
        reads: the rotation's row of B(0), the identity's row of X and the
        first 8 entries of its row of {0}."""
        pulled, boxes_read = [0], [0]
        factor_rows, box_row = ProductDyn._factor_rows, oracles._box_row

        def counted(items, counter):
            for bits in items:
                counter[0] += 1
                yield bits

        monkeypatch.setattr(ProductDyn, "_factor_rows", lambda *args: (
            counted(row, pulled) for row in factor_rows(*args)))
        monkeypatch.setattr(oracles, "_box_row", lambda rows, *acc: (
            box_row(rows, *acc) if acc
            else counted(box_row(rows), boxes_read)))
        sys = discrete_system(list(range(40)))
        opens = (points_open(sys.space, range(40)),) + tuple(
            points_open(sys.space, [k]) for k in range(40))
        rotation = TableDyn(make_rotation(5, 1))
        pd = ProductDyn([(rotation, 1), (TableDyn(sys), 1)])
        boxes = _BoxBasis((rotation.default_basis(), opens))
        v = is_transitive(pd, basis=boxes)
        assert v.counterexample == ("(B(0),{0})", "(B(0),{1})")
        assert pulled == [5 + 41 + 8] and boxes_read == [5 * 41 + 8]
        assert v == is_transitive(PairwiseProduct(pd), basis=tuple(boxes))

    def test_holding_weak_mixing_reads_two_rows_and_the_values(self):
        """The square of the full shift on 2 symbols over its 14 cylinders:
        once the first two of its 196 box rows are read, 2 * 14^2 sets,
        the value pass ANDs the shift's distinct sets.  None is empty, so
        the scan yields them as one chunk and stops: it reads 2 * 196 + 8
        sets, not 9,604."""
        shift = ShiftDyn(full_shift(2, 3))
        with _ScanSpy() as spy:
            v = is_weakly_mixing(shift)
        assert v.holds and spy.decided == 1 and spy.sets <= 500
        square = ProductDyn([(shift, 1), (shift, 1)])
        assert replace(v, note="") == is_transitive(PairwiseProduct(square))

    def test_disjoint_rotations_run_the_value_pass(self):
        """rotation(80) x rotation(81) over 6,480 boxes: the first two box
        rows are read in 13 chunks each, and the first chunk of the third
        brings the sets read to 80^2 + 81^2; the value pass decides the
        scan from 80 * 81 ANDs, one more chunk."""
        with _ScanSpy() as spy:
            v = weakly_disjoint(make_rotation(80, 1), make_rotation(81, 1))
        assert v.holds and v.exact and len(v.witnesses) == 8
        assert (spy.built, spy.decided) == (1, 1)
        assert (spy.steps, spy.sets) == (2 * 13 + 1 + 1,
                                         2 * 6480 + 8 + 80 * 81)

    def test_failure_before_the_pass_pulls_no_more_factor_rows(
            self, monkeypatch):
        """rotation(3) x (the full shift on 2 symbols)^2 x (the identity on
        6 points) over the singletons, the cylinders [0], [1], and X, {0},
        ..., {5}: the first box row fills the window and the second fails
        at its third box, after 42 + 8 of the 62 sets that start the value
        pass.  So no value pass runs, and the scan pulls only the factor
        entries of the boxes it reads: a row of each factor's first open
        and the identity's row of {0}."""
        pulled = [0]
        factor_rows = ProductDyn._factor_rows

        def counted(row):
            for bits in row:
                pulled[0] += 1
                yield bits

        monkeypatch.setattr(ProductDyn, "_factor_rows", lambda *args: map(
            counted, factor_rows(*args)))
        ident = discrete_system(list(range(6)))
        opens = (points_open(ident.space, range(6)),) + tuple(
            points_open(ident.space, [k]) for k in range(6))
        factors = [(TableDyn(make_rotation(3, 1)), 1),
                   (ShiftDyn(full_shift(2, 2), cylinder_length=1), 2),
                   (TableDyn(ident), 1)]
        pd = ProductDyn(factors)
        boxes = _BoxBasis((factors[0][0].default_basis(),
                           factors[1][0].default_basis(), opens))
        with _ScanSpy() as spy:
            v = is_transitive(pd, basis=boxes)
        assert v.fails and spy.built == 0
        assert pulled == [3 + 2 + 7 + 7]
        assert v == is_transitive(PairwiseProduct(pd), basis=tuple(boxes))

    def test_failure_past_the_pass_is_found_in_order(self):
        """(the full shift on 2 symbols) x (a 2-cycle)^2 over the cylinders
        [0], [1] and X, X, X, {0}, {1}: T^2 fixes both points, so {0}
        never reaches {1}, although T sends it there at odd times.  The
        first three box rows pass, and the value pass finds the empty set
        only among the ANDs of every factor's dilated sets; the ordered
        scan then finds the first failing box."""
        cycle = make_rotation(2, 1)
        opens = (points_open(cycle.space, [0, 1]),) * 3 + (
            points_open(cycle.space, [0]), points_open(cycle.space, [1]))
        shift = ShiftDyn(full_shift(2, 2), cylinder_length=1)
        pd = ProductDyn([(shift, 1), (TableDyn(cycle), 2)])
        boxes = _BoxBasis((shift.default_basis(), opens))
        with _ScanSpy() as spy:
            v = is_transitive(pd, basis=boxes)
        assert (spy.built, spy.gave_up, spy.decided) == (1, 0, 0)
        assert v.counterexample == ("([0],{0})", "([0],{1})")
        assert v == is_transitive(PairwiseProduct(pd), basis=tuple(boxes))
