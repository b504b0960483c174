"""Lazy lifts against the definitions: an entry of a lift's table read by
index steps its one state, agrees with the state stepped by the definition
and with the whole table, and builds no whole table; the state codes rank
and unrank by a digit DP; and the proximality lemma agrees with the
materialized table of T^preperiod."""

import contextlib
import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzdyn.fuzzy as fuzzy
import fuzzdyn.hyperspace as hyperspace
from fuzzdyn.analysis import is_proximal
from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.fuzzy import LevelGrid, _Codes, fuzzy_lift_system
from fuzzdyn.hyperspace import lift_system
import fuzzdyn.spaces as spaces
from fuzzdyn.spaces import LiftTable, make_rotation
from fuzzdyn.theorems import verify_theorem

from helpers import brute_lift_entries, brute_proximal, image_points
from test_derived_spaces import every_constraint, table_systems


def no_whole_table():
    """Fail any build of a whole lift table."""
    return mock.patch.object(LiftTable, "whole",
                             side_effect=AssertionError("whole table"))


@settings(max_examples=40, deadline=None)
@given(table_systems(max_points=6), st.integers(1, 3), st.data())
def test_lazy_entries_match_the_brute_step(sys, m, data):
    """Under every constraint, a few entries read by index equal the brute
    steps and the whole table, and reading them builds no whole table."""
    grid = LevelGrid(m)
    for constraint in every_constraint(grid):
        lift = fuzzy_lift_system(sys, grid, constraint)
        size = len(lift.table)
        picks = data.draw(st.lists(st.integers(-size, size - 1),
                                   min_size=1, max_size=5))
        with no_whole_table():
            lazy = [lift.table[i] for i in picks]
        assert lazy == brute_lift_entries(sys, grid, constraint,
                                          [i % size for i in picks])
        whole = lift.whole_table()
        assert lazy == [whole[i] for i in picks]


@settings(max_examples=40, deadline=None)
@given(table_systems(max_points=6), st.data())
def test_lazy_subset_entries_match_the_images(sys, data):
    lift = lift_system(sys)
    pts = lift.space.points
    size = len(pts)
    picks = data.draw(st.lists(st.integers(-size, size - 1), min_size=1,
                               max_size=5))
    lazy = [lift.table[i] for i in picks]
    assert [pts[t] for t in lazy] == [image_points(sys, pts[i])
                                      for i in picks]
    whole = lift.whole_table()
    assert lazy == [whole[i] for i in picks]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_codes_rank_and_unrank_round_trip(n, radix, data):
    """The codes of height at least ``low``, ascending, by the DP and by
    filtering every code; ``index`` inverts the read and refuses a code of
    no state."""
    low = data.draw(st.integers(0, radix - 1))
    codes = _Codes(n, radix, low)
    brute = [code for code, digits in enumerate(
        itertools.product(range(radix), repeat=n)) if max(digits) >= low]
    assert len(codes) == len(brute)
    assert list(codes) == brute
    i = data.draw(st.integers(-len(brute), len(brute) - 1))
    assert codes[i] == brute[i]
    assert codes.index(brute[i]) == i % len(brute)
    assert codes[:i] == brute[:i]
    members = set(brute)
    outside = [c for c in range(radix ** n + 1) if c not in members]
    for code in outside[:3] + outside[-1:]:
        with pytest.raises(ValueError):
            codes.index(code)
    with pytest.raises(IndexError):
        codes[len(brute)]


def test_codes_round_trip_past_the_cap():
    # the eq-1 slice of 20 points at m = 2: 3^20 - 2^20 states
    codes = _Codes(20, 3, 2)
    assert len(codes) == 3 ** 20 - 2 ** 20
    for i in (0, 1, 2 ** 20, 10 ** 9, len(codes) - 1):
        code = codes[i]
        assert codes.index(code) == i
        digits = [code // 3 ** k % 3 for k in range(20)]
        assert max(digits) == 2
    assert codes[0] == 2 and codes[-1] == 3 ** 20 - 1


@settings(max_examples=40, deadline=None)
@given(table_systems(max_points=6), st.integers(1, 3))
def test_the_proximality_lemma_matches_the_whole_table(sys, m):
    """``first_apart`` is the first state whose image under the
    materialized table of T^pre differs from state 0's; it is None iff the
    base's T^pre is constant and the states have one height."""
    grid = LevelGrid(m)
    constant = len(set(sys.preperiod_table())) == 1
    for lift in [lift_system(sys)] + [fuzzy_lift_system(sys, grid, c)
                                      for c in every_constraint(grid)]:
        j = lift.first_apart()
        settled = lift.preperiod_table()
        assert j == next((j for j, t in enumerate(settled)
                          if t != settled[0]), None), lift.label
        assert (j is None) == (constant and lift.table.heights == 1)
        if len(lift.table) <= 64:
            assert is_proximal(lift) == brute_proximal(lift), lift.label


@pytest.mark.parametrize("theorem", ["transitivity", "mixing", "f-mixing",
                                     "a-transitivity", "proximality"])
def test_lazy_theorems_build_no_whole_lift(theorem):
    """The five theorems that read an orbit answer on 3^12 states, past
    the state cap, without building a whole fuzzy table."""
    with no_whole_table():
        rep = verify_theorem(theorem, make_rotation(12, 1), m=2)
    assert rep.consistent and all(it.exact for it in rep.items)


def test_proximality_reads_distances_without_tables():
    """The proximality counterexample on 3^30 states reads its distances
    from the cut masks of its codes: no whole lift table, no cut columns and
    no min-to-mask table, and a small traced peak."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(no_whole_table())
        stack.enter_context(mock.patch.object(
            fuzzy, "_cut_columns", side_effect=AssertionError("_cut_columns")))
        stack.enter_context(mock.patch.object(
            hyperspace, "_min_to_mask_table",
            side_effect=AssertionError("_min_to_mask_table")))
        tracemalloc.start()
        try:
            rep = verify_theorem("proximality", make_rotation(30, 1), m=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rep.consistent and all(it.exact for it in rep.items)
    assert peak < 4 * 2 ** 20


def test_whole_readers_are_bounded(monkeypatch):
    """A reader of every entry builds the whole table within the cap."""
    lift = fuzzy_lift_system(make_rotation(10, 1), LevelGrid(2), "nonempty")
    assert len(lift.table) == 3 ** 10 - 1
    assert lift.table[5] == fuzzy_lift_system(
        make_rotation(10, 1), LevelGrid(2), "nonempty").whole_table()[5]
    monkeypatch.setattr(spaces, "STATE_CAP", 3 ** 9)
    for read in (lift.preimages, lift.preperiod_table, lift.whole_table,
                 lambda: list(lift.table), lift.space.scan_metric):
        with pytest.raises(BoundExceeded, match="^fuzzy lift: size 59049 "
                                                "exceeds bound 19683$"):
            read()


def test_an_unindexable_lift_is_refused():
    """States past ``sys.maxsize`` cannot be indexed: the lift is refused
    with the bound of its kind."""
    with pytest.raises(BoundExceeded, match=f"^fuzzy lift: size {3 ** 40} "):
        fuzzy_lift_system(make_rotation(40, 1), LevelGrid(2), "all")
    assert len(fuzzy_lift_system(make_rotation(39, 1), LevelGrid(2),
                                 ("eq", Fraction(1))).table) == \
        3 ** 39 - 2 ** 39
    with pytest.raises(BoundExceeded, match="^hyperspace lift: size 64 "
                                            "exceeds bound 63$"):
        lift_system(make_rotation(64, 1))
    assert len(lift_system(make_rotation(63, 1)).table) == 2 ** 63 - 1


def test_a_lazy_lift_indexes_a_point_by_its_code():
    """A point id of a lift of 3^20 states is looked up through its code,
    with no table of the states; anything else is not in the space."""
    sys = make_rotation(20, 1)
    for lift in (fuzzy_lift_system(sys, LevelGrid(2), ("eq", Fraction(1))),
                 lift_system(sys)):
        space = lift.space
        for i in (0, 1, len(space) // 3, len(space) - 1):
            assert space.index(space.points[i]) == i
        assert space.points[5] in space
    fuzzy_space = fuzzy_lift_system(sys, LevelGrid(2), ("eq", Fraction(1))
                                    ).space
    half = (Fraction(1, 2),) * 20
    for other in (half, (Fraction(0),) * 20, half[:19], list(half),
                  (Fraction(1, 3),) * 20):
        assert other not in fuzzy_space
        with pytest.raises(InputError, match="^point not in space: "):
            fuzzy_space.index(other)
    subset_space = lift_system(sys).space
    for other in (frozenset(), frozenset({20}), (0, 1)):
        assert other not in subset_space
