"""Equivalence harness: evaluate every side of a known equivalence on the
same instance (base system, subset lift, fuzzy lifts per height) and report
per-item verdicts with an agreement matrix.  Every item is a checker's
``Verdict``; the harness only declares which checker runs on which level.

An exact-mode disagreement between items of one equivalence is an
implementation-bug oracle, not mathematics; it raises a red alert carrying
a replayable payload, and the CLI turns that into its own exit code.
Horizon-limited items can disagree without an alert (their evidence is
bounded), though the matrix still records the inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .analysis import (Verdict, diam_reaches_zero, equicontinuity_modulus,
                       is_a_transitive, is_F_transitive,
                       is_mildly_mixing_bounded, is_mixing, is_proximal,
                       is_transitive, is_uniformly_rigid, is_weakly_mixing)
from .errors import InputError
from .families import FamilyClassifier
from .fuzzy import (DEFAULT_STATE_CAP, GFunction, LevelGrid, cuts_commute,
                    fuzzy_lift_system, heights_preserved)
from .hyperspace import lift_system
from .oracles import HyperShiftDyn, ShiftDyn
from .spaces import SystemMap, as_fraction


@dataclass(frozen=True)
class ReportItem:
    item_id: str
    prop: str
    level: str
    status: str
    exact: bool
    witnesses: tuple = ()
    note: str = ""
    in_matrix: bool = True


@dataclass
class EquivalenceReport:
    theorem: str
    system: str
    config: dict
    items: list[ReportItem] = field(default_factory=list)
    consistent: bool = True
    red_alert: bool = False
    replay: dict | None = None
    note: str = ""

    def matrix_items(self) -> list[ReportItem]:
        return [it for it in self.items
                if it.in_matrix and it.status != "inconclusive"]

    def finalize(self) -> "EquivalenceReport":
        mats = self.matrix_items()
        statuses = {it.status for it in mats}
        self.consistent = len(statuses) <= 1
        exact_statuses = {}
        for it in mats:
            if it.exact:
                exact_statuses.setdefault(it.status, it)
        if len(exact_statuses) > 1:
            self.red_alert = True
            a, b = list(exact_statuses.values())[:2]
            self.replay = {
                "theorem": self.theorem,
                "system": self.system,
                "config": {k: str(v) for k, v in self.config.items()},
                "disagreeing": [
                    {"item": a.item_id, "status": a.status},
                    {"item": b.item_id, "status": b.status},
                ],
            }
        return self


def _item_from_verdict(item_id: str, prop: str, level: str, v: Verdict,
                       in_matrix: bool = True, note: str = "") -> ReportItem:
    return ReportItem(item_id, prop, level, v.status, v.exact,
                      witnesses=v.witnesses,
                      note=note or v.note, in_matrix=in_matrix)


@dataclass(frozen=True)
class _Run:
    """The parameters shared by every item of one verification."""
    grid: LevelGrid
    lambdas: tuple
    horizon: int | None
    cap: int
    eps: Fraction | None
    exps: tuple
    g: GFunction | None
    catalog: Sequence | None
    family: FamilyClassifier


# -- theorems declared as rows ---------------------------------------------
#
# A row is one item of a theorem: a checker run on every instance of a level.
# On a table system the levels are the base system, its subset lift and one
# fuzzy slice of exact height lambda per lambda, each built when its rows run.
# On a shift the base and hyper rows run on return-time oracles, and every
# fuzzy item copies the hyper verdict of the same item: the indicator states
# of height lambda carry the subset system isometrically.

_ISOMETRIC = "indicator states carry the subset system isometrically"

#: shift oracle options of a row, and the note that replaces the verdict's
_DEFAULT_BASIS = ({}, "")
_LENGTH_2 = ({"cylinder_length": 2}, "length-2 cylinder basis")
_ONE_COMPONENT = ({"max_components": 1}, "single-component basis")
_ONE_COMPONENT_LENGTH_2 = ({"cylinder_length": 2, "max_components": 1},
                           "single-component, length-2 basis")


def _wm_and_a_transitive(target, run: _Run, wm_witnesses: int = 2) -> Verdict:
    """Weak mixing and a-transitivity, witnessed by the first witnesses of
    each side."""
    wm = is_weakly_mixing(target, horizon=run.horizon)
    at = is_a_transitive(target, run.exps, horizon=run.horizon)
    return Verdict("holds" if wm.holds and at.holds else "fails",
                   wm.exact and at.exact,
                   witnesses=wm.witnesses[:wm_witnesses] + at.witnesses[:2])


#: item -> (property, check(target, run)); {kind} and {exps} are filled in
_ITEMS = {
    "transitive": ("transitive",
                   lambda t, run: is_transitive(t, horizon=run.horizon)),
    "weak-mixing": ("weakly mixing",
                    lambda t, run: is_weakly_mixing(t, horizon=run.horizon)),
    "mixing": ("mixing", lambda t, run: is_mixing(t, horizon=run.horizon)),
    "F-transitive": ("{kind}-transitive", lambda t, run: is_F_transitive(
        t, run.family, horizon=run.horizon)),
    "F-mixing": ("{kind}-mixing", lambda t, run: is_F_transitive(
        t, run.family, horizon=run.horizon, mixing=True)),
    "mildly-mixing": ("mildly mixing", lambda t, run: is_mildly_mixing_bounded(
        t, run.catalog, run.horizon)),
    "a-transitive": ("{exps}-transitive", lambda t, run: is_a_transitive(
        t, run.exps, horizon=run.horizon)),
    "wm-and-a-transitive": ("weakly mixing and {exps}-transitive",
                            _wm_and_a_transitive),
}


@dataclass(frozen=True)
class _Row:
    """Item ``<level>-<item>`` of a theorem; ``level`` is "base", "hyper" or
    "fuzzy".  On a shift, ``shift_basis`` builds the oracle, ``shift_check``
    (when given) replaces the item's check, and a fuzzy row with
    ``on_shift`` False gives no item."""
    level: str
    item: str
    shift_basis: tuple = _DEFAULT_BASIS
    shift_check: Callable[..., Verdict] | None = None
    on_shift: bool = True


_ROWS = {
    "transitivity": (
        _Row("base", "weak-mixing"),
        _Row("hyper", "transitive"),
        _Row("hyper", "weak-mixing", shift_check=lambda t, run:
             is_weakly_mixing(t, horizon=run.horizon, method="lemma")),
        _Row("fuzzy", "transitive"),
        _Row("fuzzy", "weak-mixing"),
    ),
    "mixing": (
        _Row("base", "mixing"),
        _Row("hyper", "mixing"),
        _Row("fuzzy", "mixing"),
    ),
    "f-mixing": (
        _Row("base", "F-mixing", _LENGTH_2),
        _Row("hyper", "F-transitive", _ONE_COMPONENT),
        _Row("hyper", "F-mixing", _ONE_COMPONENT_LENGTH_2),
        _Row("fuzzy", "F-transitive"),
        _Row("fuzzy", "F-mixing", on_shift=False),
    ),
    "mild-mixing": (
        _Row("base", "mildly-mixing"),
        _Row("hyper", "mildly-mixing", _ONE_COMPONENT),
        _Row("fuzzy", "mildly-mixing"),
    ),
    "a-transitivity": (
        _Row("base", "wm-and-a-transitive",
             shift_check=partial(_wm_and_a_transitive, wm_witnesses=0)),
        _Row("hyper", "a-transitive", _ONE_COMPONENT),
        _Row("fuzzy", "a-transitive"),
    ),
}


def _row_item(row: _Row, level: str, v: Verdict, run: _Run) -> ReportItem:
    prop = _ITEMS[row.item][0].format(kind=run.family.kind, exps=run.exps)
    return _item_from_verdict(f"{level}-{row.item}", prop, level, v)


def _table_levels(sys: SystemMap, run: _Run):
    """(row level, level name, system) per level, each built on demand."""
    yield "base", "base", sys
    yield "hyper", "hyper", lift_system(sys)
    for lam in run.lambdas:
        yield "fuzzy", f"fuzzy({lam})", fuzzy_lift_system(
            sys, run.grid, ("eq", lam), cap=run.cap)


def _rows_items(rows: tuple[_Row, ...], system, run: _Run) -> list[ReportItem]:
    """Run every row of a theorem, level by level."""
    items = []
    if isinstance(system, SystemMap):
        for level, name, target in _table_levels(system, run):
            for row in rows:
                if row.level == level:
                    v = _ITEMS[row.item][1](target, run)
                    items.append(_row_item(row, name, v, run))
        return items
    hyper = {}
    for row in rows:
        if row.level == "fuzzy":
            continue
        options, note = row.shift_basis
        oracle = (ShiftDyn if row.level == "base" else HyperShiftDyn)(
            system, **options)
        v = (row.shift_check or _ITEMS[row.item][1])(oracle, run)
        if note:
            v = replace(v, note=note)
        if row.level == "hyper":
            hyper[row.item] = v
        items.append(_row_item(row, row.level, v, run))
    for lam in run.lambdas:
        for row in rows:
            if row.level == "fuzzy" and row.on_shift:
                v = replace(hyper[row.item], exact=False, note=_ISOMETRIC)
                items.append(_row_item(row, f"fuzzy({lam})", v, run))
    return items


# -- theorems with their own builders --------------------------------------


def _equicontinuity_items(sys: SystemMap, run: _Run) -> list[ReportItem]:
    eps = run.eps
    if eps is None:
        eps = sys.space.min_positive_distance() or Fraction(1)
    levels = (
        ("base-equicontinuous", "base", lambda: sys),
        ("hyper-equicontinuous", "hyper", lambda: lift_system(sys)),
        ("fuzzy-equicontinuous", "fuzzy(F0)",
         lambda: fuzzy_lift_system(sys, run.grid, "nonempty", cap=run.cap)))
    # on one point the F0 lift puts its distinct heights at distance 0
    return [_item_from_verdict(item_id, "equicontinuous", level,
                               equicontinuity_modulus(build(), eps))
            for item_id, level, build in levels
            if sys.space.nontrivial or level != "fuzzy(F0)"]


def _uniform_rigidity_items(sys: SystemMap, run: _Run) -> list[ReportItem]:
    """Every level reads the base displacement curve.  Singleton lemma:
    max over nonempty A of d_H(T^n(A), A) is max over x of d(T^n(x), x),
    since singletons attain it and each point of A moves at most that far.
    Each fuzzy slice displaces like the subset lift: some cut of its states
    is any given subset, and cuts commute with Zadeh's extension."""
    eps = run.eps
    if eps is None:
        mp = sys.space.min_positive_distance()
        eps = (mp / 2) if mp else Fraction(1, 2)
    v = is_uniformly_rigid(sys, eps, run.horizon)
    slices = ["F0"] + [f"{kind} {lam}" for kind in ("eq", "ge")
                       for lam in run.lambdas]
    levels = ([("base", v.note), ("hyper", "singleton lemma")]
              + [(f"fuzzy({name})", "levelwise cut reduction")
                 for name in slices])
    return [_item_from_verdict(f"{level}-uniformly-rigid", "uniformly rigid",
                               level, v, note=note)
            for level, note in levels]


def _proximality_items(sys: SystemMap, run: _Run) -> list[ReportItem]:
    grid = run.grid
    items = [_item_from_verdict("hyper-proximal", "proximal", "hyper",
                                is_proximal(lift_system(sys))),
             _item_from_verdict("diam-decay", "image diameters reach zero",
                                "base", diam_reaches_zero(sys, run.horizon))]
    for lam in run.lambdas:
        fl = fuzzy_lift_system(sys, grid, ("eq", lam), cap=run.cap)
        items.append(_item_from_verdict(
            f"fuzzy({lam})-proximal", "proximal", f"fuzzy({lam})",
            is_proximal(fl)))
    if grid.m >= 2 and sys.space.nontrivial:
        f0 = fuzzy_lift_system(sys, grid, "nonempty", cap=run.cap)
        items.append(_item_from_verdict(
            "fuzzy(F0)-proximal", "proximal", "fuzzy(F0)", is_proximal(f0),
            in_matrix=False,
            note="states of different heights stay a diameter apart, so "
                 "the mixed-height system is expected non-proximal"))
    return items


def _height_invariance_items(sys: SystemMap, run: _Run) -> list[ReportItem]:
    f0 = fuzzy_lift_system(sys, run.grid, "nonempty", cap=run.cap)
    items = [_item_from_verdict(
        "height-obstruction", "distinct heights stay a diameter apart",
        "fuzzy(all)", heights_preserved(sys, run.grid, f0, run.horizon))]
    if sys.space.nontrivial:
        items.append(_item_from_verdict(
            "f0-not-transitive", "transitive", "fuzzy(F0)",
            is_transitive(f0), in_matrix=False,
            note="expected to fail on a multi-height enumeration"))
        items.append(_item_from_verdict(
            "f0-not-proximal", "proximal", "fuzzy(F0)",
            is_proximal(f0), in_matrix=False,
            note="expected to fail on a multi-height enumeration"))
    return items


def _cut_lemma_items(sys: SystemMap, run: _Run) -> list[ReportItem]:
    return [_item_from_verdict(
        "cut-commutation", "iterated cuts move by the level transfer",
        "fuzzy(all)", cuts_commute(sys, run.grid, run.g, run.horizon,
                                   run.cap))]


_BUILDERS = {
    **{theorem: partial(_rows_items, rows) for theorem, rows in _ROWS.items()},
    "equicontinuity": _equicontinuity_items,
    "uniform-rigidity": _uniform_rigidity_items,
    "proximality": _proximality_items,
    "height-invariance": _height_invariance_items,
    "cut-lemma": _cut_lemma_items,
}

THEOREM_IDS = tuple(_BUILDERS)


def verify_theorem(theorem: str, system, *, m: int = 2,
                   lambdas: Sequence[Fraction] | None = None,
                   eps=None, exponents: Sequence[int] | None = None,
                   g: GFunction | None = None, horizon: int | None = None,
                   catalog=None, family: FamilyClassifier | None = None,
                   state_cap: int = DEFAULT_STATE_CAP) -> EquivalenceReport:
    """Evaluate every item of the named equivalence on one instance.

    Levels are the base system, the subset lift, and fuzzy slices for each
    height in ``lambdas`` (defaulting to all grid levels).  Returns the
    finalized report; the red-alert flag marks exact-mode disagreements.
    """
    builder = _BUILDERS.get(theorem)
    if builder is None:
        raise InputError(f"unknown theorem id {theorem!r}; "
                         f"known: {', '.join(THEOREM_IDS)}")
    grid = LevelGrid(m)
    if lambdas is None:
        lams = grid.levels
    else:
        lams = tuple(as_fraction(x) for x in lambdas)
        for k, lam in enumerate(lams):
            if not grid.admits(lam) or lam <= 0:
                raise InputError(f"lambda {lam} is not a positive grid level")
            if lam in lams[:k]:
                raise InputError(f"lambda {lam} is repeated")
    label = system.label if hasattr(system, "label") else str(system)
    config = {"theorem": theorem, "system": label, "m": m,
              "lambdas": ",".join(str(x) for x in lams),
              "eps": "" if eps is None else str(eps),
              "exponents": "" if exponents is None else
              ",".join(str(e) for e in exponents),
              "horizon": "" if horizon is None else horizon}
    report = EquivalenceReport(theorem, label, config)
    run = _Run(grid, lams, horizon, state_cap, eps,
               tuple(exponents) if exponents is not None else (1, 2), g,
               catalog,
               family if family is not None else FamilyClassifier("thick"))
    if theorem not in _ROWS and not isinstance(system, SystemMap):
        raise InputError(f"theorem {theorem!r} needs a finite table system")
    report.items = builder(system, run)
    return report.finalize()
