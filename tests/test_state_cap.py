"""One state cap: every materialized state space is bounded by
``spaces.STATE_CAP``, read when the space is materialized.

Each state space counts the codes its kernel steps: 2^n subset masks for
the subset lift and its enumeration, radix^n codes for a fuzzy slice and
its enumeration, and the states of a product system.  At the cap each one
answers; one past it, each raises the bound of its own name.
"""

from fractions import Fraction

import pytest

import fuzzdyn.spaces as spaces
from fuzzdyn.errors import BoundExceeded
from fuzzdyn.fuzzy import (LevelGrid, cuts_commute, enumerate_fuzzy,
                           fuzzy_lift_system)
from fuzzdyn.hyperspace import enumerate_compacts, lift_system
from fuzzdyn.spaces import circle_space, make_rotation, product_system

F = Fraction

#: the lifts of rotation(4, 1) at m = 2: (bound name, codes, build)
LIFTS = {
    "K(X)": ("hyperspace lift", 2 ** 4,
             lambda sys: lift_system(sys)),
    "F0": ("fuzzy lift", 3 ** 4,
           lambda sys: fuzzy_lift_system(sys, LevelGrid(2), "nonempty")),
    # an eq slice steps the codes of its own levels 0 .. 1
    "eq": ("fuzzy lift", 2 ** 4,
           lambda sys: fuzzy_lift_system(sys, LevelGrid(2), ("eq", F(1, 2)))),
    "ge": ("fuzzy lift", 3 ** 4,
           lambda sys: fuzzy_lift_system(sys, LevelGrid(2), ("ge", F(1, 2)))),
}

#: the readers of every state of a lift, each of which checks the cap
READERS = {
    "whole table": lambda lift: lift.whole_table(),
    "metric scan": lambda lift: lift.space.scan_metric(),
}

#: the other state spaces: (bound name, codes, build and read every state)
ENUMERATIONS = {
    "enumerate_compacts": ("hyperspace lift", 2 ** 4,
                           lambda: list(enumerate_compacts(circle_space(4)))),
    "enumerate_fuzzy": ("fuzzy lift", 3 ** 4, lambda: list(enumerate_fuzzy(
        circle_space(4), LevelGrid(2), ("eq", F(1))))),
    "product_system": ("product system", 3 * 4, lambda: product_system(
        [(make_rotation(3, 1), 1), (make_rotation(4, 1), 1)])),
}


def _at_the_cap(monkeypatch, what, count, read):
    """``read`` answers with the cap at ``count`` and raises the bound
    ``what`` with the cap one below."""
    monkeypatch.setattr(spaces, "STATE_CAP", count)
    read()
    monkeypatch.setattr(spaces, "STATE_CAP", count - 1)
    with pytest.raises(BoundExceeded) as exc:
        read()
    assert (exc.value.what, exc.value.size, exc.value.bound) == \
        (what, count, count - 1)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("lift", LIFTS)
def test_a_lift_reads_every_state_within_the_cap(monkeypatch, lift, reader):
    what, count, build = LIFTS[lift]
    _at_the_cap(monkeypatch, what, count,
                lambda: READERS[reader](build(make_rotation(4, 1))))


@pytest.mark.parametrize("lift", LIFTS)
def test_a_lift_past_the_cap_is_read_state_by_state(monkeypatch, lift):
    _, count, build = LIFTS[lift]
    whole = build(make_rotation(4, 1)).whole_table()
    monkeypatch.setattr(spaces, "STATE_CAP", count - 1)
    table = build(make_rotation(4, 1)).table
    assert [table[i] for i in range(len(table))] == list(whole)


@pytest.mark.parametrize("space", ENUMERATIONS)
def test_an_enumeration_or_product_is_within_the_cap(monkeypatch, space):
    _at_the_cap(monkeypatch, *ENUMERATIONS[space])


@pytest.mark.parametrize("cap, every", [(3 ** 4, True), (3 ** 4 - 1, False)])
def test_the_cut_lemma_samples_iff_the_codes_pass_the_cap(monkeypatch, cap,
                                                         every):
    monkeypatch.setattr(spaces, "STATE_CAP", cap)
    v = cuts_commute(make_rotation(4, 1), LevelGrid(2))
    assert v.holds and v.exact == every
    assert (v.note == "all states") == every
    assert dict(v.witnesses)["equalities_checked"] == \
        (3 ** 4 if every else 256) * 2 * 6
