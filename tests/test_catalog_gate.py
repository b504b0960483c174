"""Catalog consistency gate: every theorem on every catalog member, at
m = 1 and 2.

Each report must be consistent and raise no red alert.  A run refused by a
resource bound is allowed only where ``EXPECTED_BOUNDS`` lists it, and each
listed run must still be refused, so a bound that moves shows up here.  At
the state cap of 3^12 no run is refused.
"""

import pytest

from fuzzdyn.catalog import base_catalog
from fuzzdyn.cli import parse_system_spec
from fuzzdyn.errors import BoundExceeded
from fuzzdyn.spaces import make_rotation
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
    # prime cycles coprime to every cycle of the mild-mixing catalog
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


def test_every_expected_bound_is_a_gate_run():
    runs = {(t, s.label, m) for t, s, m in RUNS}
    assert EXPECTED_BOUNDS <= runs


def test_a_horizon_fakes_no_exact_verdict():
    """Every theorem at m=1 on each catalog member of at most 9 points, at
    every horizon 1 .. pre + per + 1: no report raises the red alert, and
    every exact item agrees with the same item at the default horizon,
    which reads the whole clock."""
    for system in base_catalog():
        if len(system.space.points) > 9:
            continue
        pre, per = system.eventual_period()
        for theorem in THEOREM_IDS:
            full = {it.item_id: it
                    for it in verify_theorem(theorem, system, m=1).items}
            for horizon in range(1, pre + per + 2):
                rep = verify_theorem(theorem, system, m=1, horizon=horizon)
                case = (theorem, system.label, horizon)
                assert not rep.red_alert, case
                for it in rep.items:
                    if it.exact and full[it.item_id].exact:
                        assert it.status == full[it.item_id].status, (
                            case, it.item_id)
