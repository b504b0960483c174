import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.hyperspace import (CompactSet, enumerate_compacts,
                                hausdorff_distance, lift_system)
import fuzzdyn.spaces as spaces
from fuzzdyn.spaces import (circle_space, eventual_period, iterate,
                            make_grid_interval_map, make_multiply,
                            make_rotation)
from helpers import (apply, brute_hausdorff, brute_subset_displacement,
                     image_points, in_vietoris, orbit_points, surjective,
                     taxi_space)

F = Fraction


class TestHausdorffDistance:
    def test_identity_distance_zero(self):
        space = circle_space(8)
        for c in enumerate_compacts(space):
            assert hausdorff_distance(c, c) == 0

    def test_empty_extension(self):
        space = circle_space(8)
        e = CompactSet(space, ())
        a = CompactSet(space, [0, 3])
        assert hausdorff_distance(e, e) == 0
        assert hausdorff_distance(e, a) == space.diam
        assert hausdorff_distance(a, e) == space.diam

    def test_z8_example(self):
        space = circle_space(8)
        a = CompactSet(space, [0])
        b = CompactSet(space, [0, 4])
        assert hausdorff_distance(a, b) == F(4, 8)

    def test_mismatched_spaces_rejected(self):
        a = CompactSet(circle_space(3), [0])
        b = CompactSet(circle_space(3), [0])
        with pytest.raises(InputError):
            hausdorff_distance(a, b)

    def test_metric_axioms_exhaustive_small(self):
        for space in (circle_space(5),
                      taxi_space([(F(0), F(0)), (F(1), F(0)),
                                  (F(0), F(1)), (F(2), F(1))])):
            sets = list(enumerate_compacts(space))
            for a, b in itertools.combinations(sets, 2):
                d = hausdorff_distance(a, b)
                assert d > 0
                assert d == hausdorff_distance(b, a)
            for a, b, c in itertools.combinations(sets, 3):
                assert hausdorff_distance(a, c) <= \
                    hausdorff_distance(a, b) + hausdorff_distance(b, c)

    def test_singleton_embedding_isometric(self):
        space = circle_space(7)
        for x in space.points:
            for y in space.points:
                d = hausdorff_distance(CompactSet(space, [x]),
                                       CompactSet(space, [y]))
                assert d == space.d(x, y)


class TestInducedApply:
    """The induced map on subsets is the pointwise image."""

    def test_identity_system(self):
        ident = make_multiply(5, 1)
        for c in enumerate_compacts(ident.space):
            assert image_points(ident, c.members) == c.members

    def test_rotation_pointwise_image(self):
        r = make_rotation(4, 1)
        assert image_points(r, [0, 1]) == {1, 2}

    def test_doubling_image(self):
        m = make_multiply(8, 2)
        assert image_points(m, [1, 3, 5, 7]) == {2, 6}

    def test_equivariance_on_singletons(self):
        m = make_multiply(9, 2)
        for x in m.space.points:
            assert image_points(m, [x]) == {apply(m, x)}

    def test_monotone_in_inclusion(self):
        rng = random.Random(5)
        m = make_multiply(9, 2)
        pts = list(m.space.points)
        for _ in range(50):
            a = {p for p in pts if rng.random() < 0.4}
            extra = {p for p in pts if rng.random() < 0.4}
            b = a | extra
            if not a:
                continue
            assert image_points(m, a) <= image_points(m, b)


class TestVietoris:
    """Membership in a Vietoris element, from its definition."""

    def test_whole_space_element(self):
        space = circle_space(5)
        assert in_vietoris([2], [frozenset(space.points)])

    def test_two_open_example(self):
        opens = [frozenset({0, 1}), frozenset({4, 5})]
        assert in_vietoris([0, 4], opens)
        assert not in_vietoris([0], opens)

    def test_compatibility_with_metric_balls(self):
        """Vietoris elements and Hausdorff balls refine each other on a
        finite space (witnesses searched exhaustively)."""
        space = circle_space(3)
        sets = list(enumerate_compacts(space))
        singletons = [frozenset({p}) for p in space.points]
        opens = singletons + [frozenset(space.points)]
        elements = [combo for r in range(1, 4)
                    for combo in itertools.combinations(opens, r)]
        values = sorted({hausdorff_distance(a, b)
                         for a in sets for b in sets if a != b})
        radii = [values[0] / 2] + values

        def ball(center, radius):
            return {b for b in sets
                    if hausdorff_distance(center, b) < radius}

        for a in sets:
            for v in elements:
                if not in_vietoris(a, v):
                    continue
                inside = {b for b in sets if in_vietoris(b, v)}
                assert any(ball(a, r) <= inside for r in radii), (a, v)
            for r in radii:
                target = ball(a, r)
                found = any(
                    in_vietoris(a, v)
                    and {b for b in sets if in_vietoris(b, v)} <= target
                    for v in elements)
                assert found, (a, r)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 7), (5, 31)])
    def test_counts(self, n, count):
        sets = list(enumerate_compacts(circle_space(n)))
        assert len(sets) == count
        assert len({s.members for s in sets}) == count

    def test_bound(self):
        # 2^20 masks are past the state cap of 3^12
        with pytest.raises(BoundExceeded, match="^hyperspace lift: size "
                           "1048576 exceeds bound 531441$"):
            list(enumerate_compacts(circle_space(20)))


class TestLiftSystem:
    def test_identity_lifts_to_identity(self):
        lift = lift_system(make_multiply(5, 1))
        assert tuple(lift.table) == tuple(range(31))

    def test_singleton_orbit_mirrors_base(self):
        lift = lift_system(make_rotation(3, 1))
        orbit = orbit_points(lift, frozenset({0}), 3)
        assert orbit == [frozenset({0}), frozenset({1}),
                         frozenset({2}), frozenset({0})]

    def test_bijection_lifts_to_bijection(self):
        assert surjective(lift_system(make_multiply(9, 2)))
        assert not surjective(lift_system(make_multiply(8, 2)))

    def test_lift_iterates_match_pointwise_images(self):
        sys = make_grid_interval_map("half", 4)
        lift = lift_system(sys)
        pre, per = eventual_period(lift)
        for n in range(pre + per):
            lifted = iterate(lift, n)
            base_n = iterate(sys, n)
            for i, subset in enumerate(lift.space.points):
                expect = frozenset(apply(base_n, p) for p in subset)
                assert lift.space.points[lifted.table[i]] == expect

    def test_lazy_metric_matches_definition(self):
        sys = make_multiply(9, 2)
        lift = lift_system(sys)
        pts = lift.space.points
        rng = random.Random(3)
        for _ in range(200):
            a, b = rng.choice(pts), rng.choice(pts)
            assert lift.space.d(a, b) == brute_hausdorff(sys.space, a, b)

    def test_bound(self):
        # the bound guards the whole table, which a lift builds only when
        # a reader of every entry asks for it
        lift = lift_system(make_rotation(20, 1))
        with pytest.raises(BoundExceeded, match="^hyperspace lift: size "
                           "1048576 exceeds bound 531441$"):
            lift.preimages()


def test_bound_caps_enumeration(monkeypatch):
    monkeypatch.setattr(spaces, "STATE_CAP", 2 ** 4)
    with pytest.raises(BoundExceeded):
        list(enumerate_compacts(circle_space(5)))
    with pytest.raises(BoundExceeded):
        lift_system(make_rotation(5, 1)).preimages()
    assert len(list(enumerate_compacts(circle_space(4)))) == 15
    assert len(lift_system(make_rotation(4, 1)).preimages()) == 15


def test_lift_build_keeps_no_subset_sets():
    """The subset lift keeps each state as its bitmask; a frozenset per
    state retained 3.4 MiB on this 4,095-state lift."""
    sys = make_rotation(12, 1)
    tracemalloc.start()
    try:
        lift = lift_system(sys)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(lift.space) == 4095
    assert retained <= 1.5 * 2 ** 20


def test_displacement_curve_matches_bruteforce():
    """The scan in ``brute_subset_displacement`` is the definition:
    the worst d_H(T^n(A), A) over the lift's states, by brute_hausdorff."""
    for sys in (make_rotation(4, 1), make_grid_interval_map("half", 4)):
        pre, per = eventual_period(sys)
        bound = pre + per + 1
        curve = brute_subset_displacement(sys, bound)
        lift = lift_system(sys)
        for n in range(bound):
            lifted = iterate(lift, n)
            worst = max(
                brute_hausdorff(sys.space, lift.space.points[lifted.table[i]],
                                subset)
                for i, subset in enumerate(lift.space.points))
            assert curve[n] == worst
