import functools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.analysis import displacement_curve
from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.fuzzy import FuzzySet, GFunction, LevelGrid, fuzzy_lift_system
from fuzzdyn.hyperspace import lift_system
from fuzzdyn.spaces import (SystemMap, make_grid_interval_map, make_multiply,
                            make_rotation, one_point_system)
from fuzzdyn.symbolic import ShiftSystem, full_shift
import fuzzdyn.fuzzy as fuzzy
import fuzzdyn.spaces as spaces
import fuzzdyn.theorems as theorems
from fuzzdyn.theorems import (EquivalenceReport, ReportItem, verify_theorem)
from helpers import (SEVEN_CYCLE_SFT, brute_cut_lemma, brute_fuzzy_states,
                     brute_fuzzy_step, brute_height_obstruction,
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

    def test_seven_cycle_shift_fails_at_every_level(self):
        """Weak disjointness from the old catalog held at every level of the
        7-cycle shift; the IP* scan fails each, over a bounded basis."""
        rep = verify_theorem("mild-mixing", SEVEN_CYCLE_SFT, m=1)
        assert rep.consistent and not rep.red_alert
        assert [(it.status, it.exact) for it in rep.items] == \
            [("fails", False)] * 3


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


def test_displacement_curve_at_horizon_zero_is_empty():
    """The curve lists n = 0 .. horizon - 1: none at horizon 0."""
    for sys in (make_rotation(5, 1), make_grid_interval_map("half", 4)):
        assert displacement_curve(sys, 0) == [] == \
            brute_subset_displacement(sys, 0)
        assert len(displacement_curve(sys, 1)) == 1


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
        def collapsing(sys, grid, constraint):
            # every state of the F0 lift maps to state 0, (0, 0, 1/2)
            lift = fuzzy_lift_system(sys, grid, constraint)
            return SystemMap(lift.space, [0] * len(lift.table))

        monkeypatch.setattr(theorems, "fuzzy_lift_system", collapsing)
        # state 1 of the F0 order is the grade tuple (0, 0, 1)
        with pytest.raises(RuntimeError,
                           match=r"lift kernel bug: state \(0,0,1\) "):
            verify_theorem("height-invariance", make_rotation(3, 1), m=2)

    @settings(max_examples=40, deadline=None)
    @given(taxi_tables(), st.integers(1, 3))
    def test_lemma_matches_the_pair_scan(self, sys, m):
        rep = verify_theorem("height-invariance", sys, m=m)
        item = rep.items[0]
        pre, per = sys.eventual_period()
        bound = pre + per + 1
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


def test_a_repeated_height_is_an_input_error():
    with pytest.raises(InputError, match="lambda 1/2 is repeated"):
        verify_theorem("mixing", make_rotation(3, 1), m=2,
                       lambdas=[F(1, 2), F(1, 2)])


class TestCutLemmaTheorem:
    def test_full_enumeration_small(self):
        rep = verify_theorem("cut-lemma", make_rotation(4, 1), m=2)
        item = rep.items[0]
        assert item.status == "holds" and item.exact

    def test_sampled_with_distortion(self):
        grid = LevelGrid(4)
        g = GFunction(grid, {F(0): 0, F(1, 4): F(1, 2), F(1, 2): F(1, 2),
                             F(3, 4): F(3, 4), F(1): 1})
        rep = verify_theorem("cut-lemma", make_multiply(9, 2), m=4, g=g)
        item = rep.items[0]
        assert item.status == "holds"
        assert not item.exact and "sampled" in item.note

    def test_mismatch_witness_names_state_time_and_level(self, monkeypatch):
        # a broken subset image makes every nonempty right-hand side empty
        monkeypatch.setattr(fuzzy, "_mask_image", lambda mask, bits: 0)
        sys = make_rotation(3, 1)
        rep = verify_theorem("cut-lemma", sys, m=2)
        item = rep.items[0]
        assert item.status == "fails"
        # the first state in enumeration order with a nonempty cut
        first = FuzzySet(sys.space, LevelGrid(2), (0, 0, F(1, 2)))
        assert dict(item.witnesses)["mismatch"] == (repr(first), 1, "1/2")


def distortions(grid, data):
    """The identity, and at m = 2 and 3 distortions whose level transfer
    moves the levels; at m = 3 xi^2 differs from xi (xi(1) = 2/3, and
    xi(2/3) = 1/3)."""
    tables = {2: [{F(0): 0, F(1, 2): 1, F(1): 1},
                  {F(0): 0, F(1, 2): 0, F(1): 1}],
              3: [{F(0): 0, F(1, 3): F(2, 3), F(2, 3): 1, F(1): 1}]}
    return data.draw(st.sampled_from([GFunction.identity(grid)] + [
        GFunction(grid, t) for t in tables.get(grid.m, [])]))


def sample_states(n_points, grid):
    """The 256 states that the check samples above the cap (seed 11)."""
    values = grid.with_zero()
    rng = random.Random(11)
    return [tuple(values[rng.choice(range(grid.m + 1))]
                  for _ in range(n_points)) for _ in range(256)]


def broken_cut_lemma(sys, grid, g, steps, breaks, sampled):
    """The cut-lemma item over ``steps`` iterates with the image of each
    code c in ``breaks`` sent to breaks[c] by the code kernel: in its column
    route over all states, or, one state above the cap, in the batch that
    steps the sample."""
    n_codes = (grid.m + 1) ** len(sys.space)
    cap = n_codes - 1 if sampled else n_codes
    code_steps = fuzzy._code_steps

    def broken(n, radix, pre, gint, codes=None):
        at = range(n_codes) if codes is None else codes
        return [breaks.get(c, t) for c, t in
                zip(at, code_steps(n, radix, pre, gint, codes))]
    with mock.patch.object(fuzzy, "_code_steps", broken), \
            mock.patch.object(spaces, "STATE_CAP", cap), \
            mock.patch.object(fuzzy, "_CUT_STEPS", steps):
        item, = verify_theorem("cut-lemma", sys, m=grid.m, g=g).items
    assert item.exact != sampled
    return item


def broken_scan(sys, grid, g, steps, breaks, sampled):
    """``brute_cut_lemma`` over the same states, stepped by the brute
    g-step with the same codes broken."""
    states = brute_fuzzy_states(len(sys.space), grid)
    code_of = {a: c for c, a in enumerate(states)}

    @functools.cache
    def step(a):
        c = code_of[a]
        if c in breaks:
            return states[breaks[c]]
        return brute_fuzzy_step(sys, FuzzySet(sys.space, grid, a), g).grades
    return brute_cut_lemma(sys, grid, g, steps, step,
                           sample_states(len(sys.space), grid)
                           if sampled else None)


def assert_scan(item, scan):
    """The item reports the count and first mismatch of a brute scan."""
    checked, mismatch = scan
    assert item.status == ("fails" if mismatch else "holds")
    expected = (("equalities_checked", checked),)
    if mismatch:
        expected += (("mismatch", mismatch),)
    assert item.witnesses == expected


@settings(max_examples=100, deadline=None)
@given(taxi_tables(max_points=3), st.integers(1, 3), st.integers(1, 30),
       st.booleans(), st.data())
def test_cut_lemma_fold_keeps_the_state_by_state_scan(sys, m, steps,
                                                      sampled, data):
    # a step broken at random codes: the first mismatch and the count of a
    # scan state by state over every step, though the check steps all
    # states at once, compares whole columns and stops at the fold of T, g
    # and xi; on all states, and on the sample one state above the cap
    grid = LevelGrid(m)
    g = distortions(grid, data)
    codes = st.integers(0, (m + 1) ** len(sys.space) - 1)
    breaks = dict(data.draw(st.lists(st.tuples(codes, codes), max_size=3)))
    item = broken_cut_lemma(sys, grid, g, steps, breaks, sampled)
    assert_scan(item, broken_scan(sys, grid, g, steps, breaks, sampled))


@pytest.mark.parametrize("sampled,broken,steps,first", [
    (False, 4, 3, "Fuzzy{2:1}"), (True, 4, 3, "Fuzzy{2:1}"),
    (False, 6, 2, "Fuzzy{0:1,2:1}")])
def test_cut_lemma_first_mismatch_at_a_later_state_and_step(sampled, broken,
                                                            steps, first):
    # rotation(3) at m = 1 cycles the states 1 = (0,0,1) -> 4 -> 2 -> 1 and
    # 3 -> 5 -> 6 -> 3, and the sample starts (1,1,1), (0,0,1), (0,0,1),
    # (1,0,0); a broken image of state 4 (or 6) fails there at step 1, but
    # state 1 (or 5), one step before it, comes first and fails at step 2,
    # after the scan has cut the states back to those before 4 (or 6)
    sys, grid = make_rotation(3, 1), LevelGrid(1)
    g = GFunction.identity(grid)
    item = broken_cut_lemma(sys, grid, g, steps, {broken: 0}, sampled)
    scan = broken_scan(sys, grid, g, steps, {broken: 0}, sampled)
    assert scan[1] == (first, 2, "1")
    assert_scan(item, scan)


def test_shift_rows_share_one_word_pair_memo(monkeypatch):
    """Every shift row of one verification reads the word pairs of the
    shift's one memo: each pair is computed once, whatever reads it."""
    computed = []
    pair_bits = ShiftSystem._pair_bits

    def counting(self, u, v):
        computed.append((u, v))
        return pair_bits(self, u, v)

    monkeypatch.setattr(ShiftSystem, "_pair_bits", counting)
    rep = verify_theorem("transitivity", full_shift(2, 3), m=1)
    assert rep.consistent
    assert len(computed) == len(set(computed)) == 14 ** 2


#: the lifts each verification on rotation:4,1 at m=2 builds, in order:
#: "hyper" for the subset lift, else the fuzzy lift's constraint
SLICES = [("eq", F(1, 2)), ("eq", F(1))]
LIFTS_BUILT = {
    **{theorem: ["hyper", *SLICES] for theorem in (
        "transitivity", "mixing", "f-mixing", "mild-mixing",
        "a-transitivity")},
    "equicontinuity": ["hyper", "nonempty"],
    "uniform-rigidity": [],
    "proximality": ["hyper", *SLICES, "nonempty"],
    "height-invariance": ["nonempty"],
    "cut-lemma": [],
}


@pytest.mark.parametrize("theorem", theorems.THEOREM_IDS)
def test_each_lift_is_built_at_most_once(monkeypatch, theorem):
    """The rows that share a lift run on one build of it: proximality's
    hyper row and its F0 row, height invariance's obstruction row and its
    two F0 rows.  Copy rows build none."""
    built = []
    lift, fuzzy_lift = theorems.lift_system, theorems.fuzzy_lift_system

    def counting_lift(sys):
        built.append("hyper")
        return lift(sys)

    def counting_fuzzy_lift(sys, grid, constraint):
        built.append(constraint)
        return fuzzy_lift(sys, grid, constraint)

    monkeypatch.setattr(theorems, "lift_system", counting_lift)
    monkeypatch.setattr(theorems, "fuzzy_lift_system", counting_fuzzy_lift)
    verify_theorem(theorem, make_rotation(4, 1), m=2)
    assert built == LIFTS_BUILT[theorem]


def test_copy_rows_build_no_lift():
    """Uniform rigidity copies its base verdict to the hyper level, F0 and
    every eq and ge slice.  On 64 points a subset lift exceeds its bound
    when built, so every item here comes from the base curve alone."""
    sys = make_rotation(64, 1)
    with pytest.raises(BoundExceeded):
        lift_system(sys)
    rep = verify_theorem("uniform-rigidity", sys, m=2)
    base = rep.items[0]
    assert len(rep.items) == 7
    assert {(it.status, it.exact, it.witnesses) for it in rep.items} == {
        (base.status, base.exact, base.witnesses)}


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
