"""Catalog consistency gate: every theorem on every catalog member, at
m = 1 and 2.

Each report must be consistent and raise no red alert, and every item on a
table member is exact.  A run refused by a
resource bound is allowed only where ``EXPECTED_BOUNDS`` lists it, and each
listed run must still be refused, so a bound that moves shows up here.  At
the state cap of 3^12 no run is refused.
"""

import pytest

from fuzzdyn.catalog import base_catalog
from fuzzdyn.cli import parse_system_spec
from fuzzdyn.errors import BoundExceeded
from fuzzdyn.spaces import SystemMap, make_rotation
from fuzzdyn.theorems import THEOREM_IDS, verify_theorem

#: the theorems that accept a shift of finite type
SHIFT_THEOREMS = ("transitivity", "mixing", "f-mixing", "mild-mixing",
                  "a-transitivity")

SHIFTS = ("goldenmean:2", "fullshift:2,2", "fullshift:2,3", "goldenmean:4")

#: (theorem, system label, m) whose lift exceeds the state cap
EXPECTED_BOUNDS = set()


def gate_runs():
    for sys in base_catalog():
        for theorem in THEOREM_IDS:
            for m in (1, 2):
                yield theorem, sys, m
    for spec in SHIFTS:
        for theorem in SHIFT_THEOREMS:
            yield theorem, parse_system_spec(spec), 1
    # prime cycles, each N(B(i), B(j)) a residue class with no multiple of
    # the period unless i = j
    for n in (7, 11, 13):
        yield "mild-mixing", make_rotation(n, 1), 1


RUNS = list(gate_runs())


@pytest.mark.parametrize("theorem, system, m", RUNS,
                         ids=[f"{t} {s.label} m={m}" for t, s, m in RUNS])
def test_catalog_report_is_consistent(theorem, system, m):
    if (theorem, system.label, m) in EXPECTED_BOUNDS:
        with pytest.raises(BoundExceeded):
            verify_theorem(theorem, system, m=m)
        return
    rep = verify_theorem(theorem, system, m=m)
    assert rep.consistent and not rep.red_alert
    if isinstance(system, SystemMap):
        # a table scan reads its whole clock over its singleton basis
        assert all(it.exact for it in rep.items), rep.items


def test_every_expected_bound_is_a_gate_run():
    runs = {(t, s.label, m) for t, s, m in RUNS}
    assert EXPECTED_BOUNDS <= runs
