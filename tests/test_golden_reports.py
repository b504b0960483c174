"""Canonical equivalence reports must stay byte-identical.

``golden_reports.json`` maps each case below to the canonical JSON text of
its report, recorded from an earlier version of the harness.  A refactor of
the harness, the checkers or the kernels under them must reproduce every
byte: verdicts, exactness flags, witnesses, notes and item order.

A change that is meant to alter some reports re-records just those cases,
named by key, and prints the unified diff of each::

    PYTHONPATH=src python tests/test_golden_reports.py "proximality rotation:4,1 m=2"
"""

import difflib
import json
import os
import sys
from fractions import Fraction
from unittest import mock

import pytest

import fuzzdyn.spaces as spaces
from fuzzdyn.cli import parse_system_spec
from fuzzdyn.fuzzy import GFunction, LevelGrid
from fuzzdyn.serialize import canonical_json, report_to_jsonable
from fuzzdyn.theorems import THEOREM_IDS, verify_theorem

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.json")

#: the theorems that accept a shift of finite type
SHIFT_THEOREMS = ("transitivity", "mixing", "f-mixing", "mild-mixing",
                  "a-transitivity")

#: a period-2 shift of finite type: every shift item fails on it
PERIOD_2_SFT = ('json:{"kind":"sft","alphabet":["a","b"],'
                '"edges":[["a","b"],["b","a"]],"resolution":2}')

#: (theorem, system spec, m, ``spaces.STATE_CAP`` or None for the default
#: [, eps or None for the default [, grade distortion "level:value,..." or
#: None for Zadeh's extension]])
CASES = (
    [(t, spec, 2, None) for spec in ("rotation:4,1", "gridmap:half,4")
     for t in THEOREM_IDS]
    + [(t, spec, 1, None) for spec in ("goldenmean:2", PERIOD_2_SFT,
                                       "fullshift:2,2", "fullshift:2,3")
       for t in SHIFT_THEOREMS]
    + [("cut-lemma", "rotation:5,1", 2, 100),          # sampled states
       ("uniform-rigidity", "rotation:4,1", 2, 20),    # cap below slices
       ("transitivity", "point", 1, None),             # product witnesses
       ("equicontinuity", "multiply:8,2", 1, None,     # delta < eps
        "1/2"),
       ("equicontinuity", "gridmap:half,4", 2, None,   # delta = eps
        "1/2"),
       ("cut-lemma", "rotation:4,1", 2, None, None,    # distorted,
        "0:0,1/2:1,1:1"),                              # all states
       ("cut-lemma", "multiply:9,2", 4, None, None,    # distorted,
        "0:0,1/4:1/2,1/2:1/2,3/4:3/4,1:1")]            # sampled
)


def case_key(theorem, spec, m, cap, eps=None, g=None):
    key = f"{theorem} {spec} m={m}"
    if cap is not None:
        key += f" state_cap={cap}"
    if eps is not None:
        key += f" eps={eps}"
    return key if g is None else f"{key} g={g}"


def parse_g(m, text):
    table = dict(pair.split(":") for pair in text.split(","))
    return GFunction(LevelGrid(m), {Fraction(k): Fraction(v)
                                    for k, v in table.items()})


def report_text(theorem, spec, m, cap, eps=None, g=None):
    """The canonical report of a case, run with ``spaces.STATE_CAP`` set to
    the case's state cap when it names one."""
    with mock.patch.object(spaces, "STATE_CAP",
                           spaces.STATE_CAP if cap is None else cap):
        report = verify_theorem(theorem, parse_system_spec(spec), m=m,
                                eps=None if eps is None else Fraction(eps),
                                g=None if g is None else parse_g(m, g))
    return canonical_json(report_to_jsonable(report))


with open(GOLDEN) as handle:
    GOLDEN_TEXT = json.load(handle)


def test_golden_covers_every_case():
    assert sorted(GOLDEN_TEXT) == sorted(case_key(*c) for c in CASES)


def test_uniform_rigidity_ignores_the_state_cap():
    """Uniform rigidity reads the base displacement curve and builds no
    lift, so a state cap below every fuzzy slice leaves its report as is."""
    assert GOLDEN_TEXT["uniform-rigidity rotation:4,1 m=2 state_cap=20"] \
        == GOLDEN_TEXT["uniform-rigidity rotation:4,1 m=2"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_key(*c))
def test_report_byte_identical(case):
    assert report_text(*case) == GOLDEN_TEXT[case_key(*case)]


def record(keys):
    """Re-record the named cases in the golden file and print each diff."""
    cases = {case_key(*c): c for c in CASES}
    unknown = [key for key in keys if key not in cases]
    if unknown or not keys:
        sys.exit(f"name one or more case keys; unknown: {unknown}")
    for key in keys:
        text = report_text(*cases[key])
        sys.stdout.writelines(difflib.unified_diff(
            GOLDEN_TEXT.get(key, "").splitlines(True), text.splitlines(True),
            f"{key} (recorded)", f"{key} (now)"))
        GOLDEN_TEXT[key] = text
    with open(GOLDEN, "w") as handle:
        handle.write(json.dumps(GOLDEN_TEXT, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
