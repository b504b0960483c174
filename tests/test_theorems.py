from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.analysis import displacement_curve
from fuzzdyn.errors import InputError
from fuzzdyn.fuzzy import FuzzySet, GFunction, LevelGrid, fuzzy_lift_system
from fuzzdyn.spaces import (SystemMap, make_grid_interval_map, make_multiply,
                            make_rotation, one_point_system)
from fuzzdyn.symbolic import ShiftSystem, full_shift
import fuzzdyn.theorems as theorems
from fuzzdyn.theorems import (EquivalenceReport, ReportItem, verify_theorem)
from helpers import (brute_cut_lemma, brute_height_obstruction,
                     brute_subset_displacement, taxi_space)

F = Fraction


def witness(item, key="witness_n"):
    return dict(item.witnesses).get(key)


class TestTransitivityTheorem:
    def test_cycle_consistent_negative(self):
        rep = verify_theorem("transitivity", make_rotation(2, 1), m=2)
        assert rep.consistent and not rep.red_alert
        assert all(it.status == "fails" for it in rep.matrix_items())
        assert all(it.exact for it in rep.matrix_items())

    def test_one_point_consistent_positive(self):
        rep = verify_theorem("transitivity", one_point_system(), m=2)
        assert rep.consistent
        assert all(it.status == "holds" for it in rep.matrix_items())

    def test_full_shift_positive_at_horizon(self):
        rep = verify_theorem("transitivity", full_shift(2, 3), m=1)
        assert rep.consistent and not rep.red_alert
        assert all(it.status == "holds" for it in rep.matrix_items())
        assert all(not it.exact for it in rep.matrix_items())


class TestMixingTheorem:
    def test_two_cycle(self):
        rep = verify_theorem("mixing", make_rotation(2, 1), m=1)
        assert rep.consistent
        assert all(it.status == "fails" for it in rep.matrix_items())

    def test_full_shift(self):
        rep = verify_theorem("mixing", full_shift(2, 3), m=1)
        assert rep.consistent
        assert all(it.status == "holds" for it in rep.matrix_items())


class TestFMixingTheorem:
    def test_cycle_fails_consistently(self):
        rep = verify_theorem("f-mixing", make_rotation(5, 1), m=1)
        assert rep.consistent
        assert all(it.status == "fails" for it in rep.matrix_items())

    def test_full_shift_holds(self):
        rep = verify_theorem("f-mixing", full_shift(2, 3), m=1)
        assert rep.consistent
        assert all(it.status == "holds" for it in rep.matrix_items())


class TestMildMixingTheorem:
    def test_cycle_fails(self):
        rep = verify_theorem("mild-mixing", make_rotation(2, 1), m=1)
        assert rep.consistent
        assert all(it.status == "fails" for it in rep.matrix_items())

    def test_one_point_holds_exactly(self):
        rep = verify_theorem("mild-mixing", one_point_system(), m=1)
        assert rep.consistent
        assert all(it.status == "holds" for it in rep.matrix_items())
        assert all(it.exact for it in rep.matrix_items())

    def test_prime_rotation_fails_exactly_at_every_level(self):
        # no cycle of the default catalog shares a factor with 7
        rep = verify_theorem("mild-mixing", make_rotation(7, 1), m=2)
        assert rep.consistent and not rep.red_alert
        assert all(it.status == "fails" and it.exact for it in rep.items)


class TestATransitivityTheorem:
    def test_rotation_negative(self):
        rep = verify_theorem("a-transitivity", make_rotation(3, 1), m=2,
                             exponents=(1, 2))
        assert rep.consistent
        assert all(it.status == "fails" for it in rep.matrix_items())

    def test_full_shift_positive(self):
        rep = verify_theorem("a-transitivity", full_shift(2, 2), m=1,
                             exponents=(1, 2))
        assert rep.consistent
        assert all(it.status == "holds" for it in rep.matrix_items())


class TestEquicontinuityTheorem:
    def test_isometry_delta_equals_eps(self):
        rep = verify_theorem("equicontinuity", make_rotation(4, 1), m=2,
                             eps=F(1, 4))
        assert rep.consistent
        for it in rep.items:
            assert it.status == "holds"
            assert dict(it.witnesses)["delta"] == "1/4"

    def test_expanding_map_consistent(self):
        rep = verify_theorem("equicontinuity", make_multiply(9, 2), m=1,
                             eps=F(2, 9))
        assert rep.consistent
        deltas = {dict(it.witnesses)["delta"] for it in rep.items}
        assert len(deltas) == 1

    def test_rejects_symbolic(self):
        with pytest.raises(InputError):
            verify_theorem("equicontinuity", full_shift(2, 3))


class TestUniformRigidityTheorem:
    def test_rotation_four_witnesses_align(self):
        rep = verify_theorem("uniform-rigidity", make_rotation(4, 1), m=2,
                             eps=F(1, 8))
        assert rep.consistent
        assert {witness(it) for it in rep.items} == {4}

    def test_halving_none_everywhere(self):
        rep = verify_theorem("uniform-rigidity",
                             make_grid_interval_map("half", 4), m=2,
                             eps=F(1, 8))
        assert rep.consistent
        assert all(it.status == "fails" for it in rep.items)
        assert {witness(it) for it in rep.items} == {None}


@st.composite
def taxi_tables(draw, max_points=5):
    """A random map on up to ``max_points`` distinct points of the integer
    plane under the taxi metric."""
    coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=max_points, unique=True))
    n = len(coords)
    table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return SystemMap(taxi_space(coords), table, label="taxi")


@settings(max_examples=60, deadline=None)
@given(taxi_tables(max_points=6), st.integers(0, 40))
def test_singleton_lemma(sys, horizon):
    """The subset lift displaces exactly like the base at every step, over
    any horizon: the hyper uniform-rigidity item reads the base curve."""
    assert brute_subset_displacement(sys, horizon) == displacement_curve(
        sys, horizon)


@settings(max_examples=40, deadline=None)
@given(taxi_tables(), st.integers(1, 3))
def test_fuzzy_displacement_matches_cut_reduction(sys, m):
    """Enumerated fuzzy slices displace exactly like the base, for every
    constraint; every fuzzy uniform-rigidity item reads the base curve on
    this reduction and the singleton lemma."""
    pre, per = sys.eventual_period()
    bound = pre + per + 1
    key = displacement_curve(sys, bound)
    grid = LevelGrid(m)
    constraints = ["all", "nonempty"] + [(kind, lam) for kind in ("eq", "ge")
                                         for lam in grid.levels]
    for constraint in constraints:
        lifted = fuzzy_lift_system(sys, grid, constraint)
        assert displacement_curve(lifted, bound) == key, constraint


class TestProximalityTheorem:
    def test_halving_consistent_with_mixed_height_remark(self):
        rep = verify_theorem("proximality",
                             make_grid_interval_map("half", 4), m=2)
        assert rep.consistent
        assert all(it.status == "holds" for it in rep.matrix_items())
        remark = [it for it in rep.items if not it.in_matrix]
        assert len(remark) == 1
        assert remark[0].status == "fails"

    def test_rotation_consistent_negative(self):
        rep = verify_theorem("proximality", make_rotation(4, 1), m=2)
        assert rep.consistent
        assert all(it.status == "fails" for it in rep.matrix_items())


class TestHeightInvariance:
    def test_rotation(self):
        rep = verify_theorem("height-invariance", make_rotation(3, 1), m=2)
        by_id = {it.item_id: it for it in rep.items}
        assert by_id["height-obstruction"].status == "holds"
        assert by_id["f0-not-transitive"].status == "fails"
        assert by_id["f0-not-proximal"].status == "fails"

    def test_height_changing_lift_is_a_kernel_bug(self, monkeypatch):
        import fuzzdyn.theorems as theorems

        def collapsing(sys, grid, constraint, cap):
            # every state of the F0 lift maps to state 0, (0, 0, 1/2)
            lift = fuzzy_lift_system(sys, grid, constraint, cap=cap)
            return SystemMap(lift.space, [0] * len(lift.table))

        monkeypatch.setattr(theorems, "fuzzy_lift_system", collapsing)
        # state 1 of the F0 order is the grade tuple (0, 0, 1)
        with pytest.raises(RuntimeError,
                           match=r"lift kernel bug: state \(0,0,1\) "):
            verify_theorem("height-invariance", make_rotation(3, 1), m=2)

    @settings(max_examples=40, deadline=None)
    @given(taxi_tables(), st.integers(1, 3), st.one_of(st.none(),
                                                       st.integers(1, 4)))
    def test_lemma_matches_the_pair_scan(self, sys, m, horizon):
        rep = verify_theorem("height-invariance", sys, m=m, horizon=horizon)
        item = rep.items[0]
        pre, per = sys.eventual_period()
        bound = horizon if horizon is not None else pre + per + 1
        status, checked = brute_height_obstruction(sys, LevelGrid(m), bound)
        assert (item.status, item.exact) == (status, True)
        assert dict(item.witnesses)["pairs_times_checked"] == checked

    def test_halving_obstruction_survives_collapse(self):
        rep = verify_theorem("height-invariance",
                             make_grid_interval_map("half", 4), m=2)
        by_id = {it.item_id: it for it in rep.items}
        assert by_id["height-obstruction"].status == "holds"
        # every level collapses, yet mixed heights still block proximality
        assert by_id["f0-not-proximal"].status == "fails"


class TestCutLemmaTheorem:
    def test_full_enumeration_small(self):
        rep = verify_theorem("cut-lemma", make_rotation(4, 1), m=2,
                             horizon=4)
        item = rep.items[0]
        assert item.status == "holds" and item.exact

    def test_sampled_with_distortion(self):
        grid = LevelGrid(4)
        g = GFunction(grid, {F(0): 0, F(1, 4): F(1, 2), F(1, 2): F(1, 2),
                             F(3, 4): F(3, 4), F(1): 1})
        rep = verify_theorem("cut-lemma", make_multiply(9, 2), m=4,
                             horizon=3, g=g)
        item = rep.items[0]
        assert item.status == "holds"
        assert not item.exact and "sampled" in item.note

    def test_mismatch_witness_names_state_time_and_level(self, monkeypatch):
        # a broken subset image makes every nonempty right-hand side empty
        import fuzzdyn.theorems as theorems
        monkeypatch.setattr(theorems, "_mask_image", lambda mask, bits: 0)
        sys = make_rotation(3, 1)
        rep = verify_theorem("cut-lemma", sys, m=2, horizon=2)
        item = rep.items[0]
        assert item.status == "fails"
        # the first state in enumeration order with a nonempty cut
        first = FuzzySet(sys.space, LevelGrid(2), (0, 0, F(1, 2)))
        assert dict(item.witnesses)["mismatch"] == (repr(first), 1, "1/2")


@settings(max_examples=60, deadline=None)
@given(taxi_tables(max_points=3), st.integers(1, 2), st.integers(1, 30),
       st.data())
def test_cut_lemma_fold_keeps_the_state_by_state_scan(sys, m, horizon, data):
    # a lift table broken at random states: the first mismatch and the count
    # of a scan state by state over the whole horizon, though the check
    # steps all states at once and stops at the fold of T, g and xi
    grid = LevelGrid(m)
    g = data.draw(st.sampled_from([GFunction.identity(grid)] + (
        [GFunction(grid, {F(0): 0, F(1, 2): 1, F(1): 1}),
         GFunction(grid, {F(0): 0, F(1, 2): 0, F(1): 1})] if m == 2 else [])))
    radix, codes, table = theorems._lift_table(sys, grid, ("all",), g, 3 ** 9)
    broken = list(table)
    for i in data.draw(st.lists(st.sampled_from(codes), max_size=3)):
        broken[i] = data.draw(st.sampled_from(codes))
    with mock.patch.object(theorems, "_lift_table",
                           return_value=(radix, codes, broken)):
        item, = verify_theorem("cut-lemma", sys, m=m, horizon=horizon,
                               g=g).items
    checked, mismatch = brute_cut_lemma(sys, grid, g, horizon, broken)
    assert item.status == ("fails" if mismatch else "holds")
    expected = (("equalities_checked", checked),)
    if mismatch:
        expected += (("mismatch", mismatch),)
    assert item.witnesses == expected


def test_shift_rows_share_one_word_pair_memo(monkeypatch):
    """Every shift row of one verification reads the word pairs of one base
    oracle per cylinder length: each pair is decided once."""
    calls = []
    return_bits = ShiftSystem.return_bits

    def counting(self, u, v, bound):
        calls.append((u, v, bound))
        return return_bits(self, u, v, bound)

    monkeypatch.setattr(ShiftSystem, "return_bits", counting)
    rep = verify_theorem("transitivity", full_shift(2, 3), m=1)
    assert rep.consistent
    assert len(calls) == len(set(calls)) == 14 ** 2


class TestReportMachinery:
    def test_unknown_theorem_rejected(self):
        with pytest.raises(InputError):
            verify_theorem("devaney", make_rotation(3, 1))

    def test_bad_lambda_rejected(self):
        with pytest.raises(InputError):
            verify_theorem("transitivity", make_rotation(3, 1), m=2,
                           lambdas=[F(1, 3)])

    def test_red_alert_on_exact_disagreement(self):
        rep = EquivalenceReport("transitivity", "synthetic", {})
        rep.items = [
            ReportItem("a", "p", "base", "holds", True),
            ReportItem("b", "p", "hyper", "fails", True),
        ]
        rep.finalize()
        assert rep.red_alert and not rep.consistent
        assert rep.replay is not None
        assert {d["item"] for d in rep.replay["disagreeing"]} == {"a", "b"}

    def test_no_alert_for_bounded_disagreement(self):
        rep = EquivalenceReport("transitivity", "synthetic", {})
        rep.items = [
            ReportItem("a", "p", "base", "holds", True),
            ReportItem("b", "p", "hyper", "fails", False),
        ]
        rep.finalize()
        assert not rep.red_alert and not rep.consistent

    def test_inconclusive_items_ignored_by_matrix(self):
        rep = EquivalenceReport("transitivity", "synthetic", {})
        rep.items = [
            ReportItem("a", "p", "base", "holds", True),
            ReportItem("b", "p", "hyper", "inconclusive", False),
        ]
        rep.finalize()
        assert rep.consistent and not rep.red_alert
