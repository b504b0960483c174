"""Equivalence harness: evaluate every side of a known equivalence on the
same instance (base system, subset lift, fuzzy lifts per height) and report
per-item verdicts with an agreement matrix.  Every item is a checker's
``Verdict``; the harness only declares which checker runs on which level.

An exact-mode disagreement between items of one equivalence is an
implementation-bug oracle, not mathematics; it raises a red alert carrying
a replayable payload, and the CLI turns that into its own exit code.
Items that are not exact (a shift's bounded basis) can disagree without an
alert, though the matrix still records the inconsistency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Callable, Sequence

from .analysis import (Verdict, diam_reaches_zero, equicontinuity_modulus,
                       is_a_transitive, is_F_transitive,
                       is_mildly_mixing_bounded, is_mixing, is_proximal,
                       is_transitive, is_uniformly_rigid, is_weakly_mixing)
from .catalog import transitive_catalog
from .errors import InputError
from .families import FamilyClassifier
from .fuzzy import (GFunction, LevelGrid, cuts_commute, fuzzy_lift_system,
                    heights_preserved)
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
    system: object
    grid: LevelGrid
    lambdas: tuple
    eps: Fraction | None
    exps: tuple
    g: GFunction | None
    catalog: Sequence | None
    family: FamilyClassifier
    held: dict = field(default_factory=dict)

    def lift(self, key):
        """The base (key None), its subset lift ("hyper") or its fuzzy lift on
        a constraint, built when first read; the run holds the last one."""
        if key is None:
            return self.system
        if key not in self.held:
            self.held.clear()
            self.held[key] = (lift_system(self.system) if key == "hyper" else
                              fuzzy_lift_system(self.system, self.grid, key))
        return self.held[key]

    @cached_property
    def transitive(self) -> Sequence:
        """The run's catalog, else a default one built when first read."""
        return (self.catalog if self.catalog is not None else
                transitive_catalog())

    def eps_or(self, share: Fraction) -> Fraction:
        """The run's eps, else ``share`` of the base gap, else ``share``."""
        if self.eps is not None:
            return self.eps
        gap = self.system.space.min_positive_distance()
        return gap * share if gap else share


# -- theorems declared as rows ---------------------------------------------
#
# A row is one item of a theorem: a checker run on every instance of a level,
# a (level name, lift key) pair.  The levels are the base system, its subset
# lift, fuzzy slices of height lambda (``fuzzy``, ``eq``) or at least lambda
# (``ge``), the nonempty states (``F0``), and ``all``: lemmas on the base.

_LEVELS = {
    "base": lambda run: [("base", None)],
    "hyper": lambda run: [("hyper", "hyper")],
    "fuzzy": lambda run: [(f"fuzzy({x})", ("eq", x)) for x in run.lambdas],
    "F0": lambda run: [("fuzzy(F0)", "nonempty")],
    "eq": lambda run: [(f"fuzzy(eq {x})", ("eq", x)) for x in run.lambdas],
    "ge": lambda run: [(f"fuzzy(ge {x})", ("ge", x)) for x in run.lambdas],
    "all": lambda run: [("fuzzy(all)", None)],
}

#: the levels of a shift: base and hyper rows run on return-time oracles, and
#: a fuzzy row copies its item's hyper verdict, not exact (``_ISOMETRIC``)
_SHIFT_LEVELS = ("base", "hyper", "fuzzy")
_ISOMETRIC = "indicator states carry the subset system isometrically"

#: shift oracle options of a row, and the note that replaces the verdict's
_DEFAULT_BASIS = ({}, "")
_LENGTH_2 = ({"cylinder_length": 2}, "length-2 cylinder basis")
_ONE_COMPONENT = ({"max_components": 1}, "single-component basis")
_ONE_COMPONENT_LENGTH_2 = ({"cylinder_length": 2, "max_components": 1},
                           "single-component, length-2 basis")


def _wm_and_a_transitive(target, run: _Run) -> Verdict:
    """Weak mixing and a-transitivity, witnessed by the first two witnesses
    of each side."""
    wm = is_weakly_mixing(target)
    at = is_a_transitive(target, run.exps)
    return Verdict("holds" if wm.holds and at.holds else "fails",
                   wm.exact and at.exact,
                   witnesses=wm.witnesses[:2] + at.witnesses[:2])


#: item -> (property, check(target, run)); {kind} and {exps} are filled in
_ITEMS = {
    "transitive": ("transitive", lambda t, run: is_transitive(t)),
    "weak-mixing": ("weakly mixing", lambda t, run: is_weakly_mixing(t)),
    "mixing": ("mixing", lambda t, run: is_mixing(t)),
    "F-transitive": ("{kind}-transitive",
                     lambda t, run: is_F_transitive(t, run.family)),
    "F-mixing": ("{kind}-mixing", lambda t, run: is_F_transitive(
        t, run.family, mixing=True)),
    "mildly-mixing": ("mildly mixing", lambda t, run: is_mildly_mixing_bounded(
        t, run.transitive)),
    "a-transitive": ("{exps}-transitive",
                     lambda t, run: is_a_transitive(t, run.exps)),
    "wm-and-a-transitive": ("weakly mixing and {exps}-transitive",
                            _wm_and_a_transitive),
    "equicontinuous": ("equicontinuous", lambda t, run: equicontinuity_modulus(
        t, run.eps_or(Fraction(1)))),
    "uniformly-rigid": ("uniformly rigid", lambda t, run: is_uniformly_rigid(
        t, run.eps_or(Fraction(1, 2)))),
    "proximal": ("proximal", lambda t, run: is_proximal(t)),
    "diam-decay": ("image diameters reach zero",
                   lambda t, run: diam_reaches_zero(t)),
    "height-obstruction": (
        "distinct heights stay a diameter apart",
        lambda t, run: heights_preserved(t, run.grid, run.lift("nonempty"))),
    "cut-commutation": ("iterated cuts move by the level transfer",
                        lambda t, run: cuts_commute(t, run.grid, run.g)),
}

#: a row's condition -> does it hold on a run
_WHEN = {
    "on a table": lambda run: isinstance(run.system, SystemMap),
    "nontrivial": lambda run: run.system.space.nontrivial,
    "multi-height": lambda run: run.grid.m > 1 and run.system.space.nontrivial,
}


@dataclass(frozen=True)
class _Row:
    """Item ``<level name>-<item>`` of a theorem, or ``item_id``, on every
    instance of ``level`` when its condition holds; ``note`` replaces the
    verdict's.  A ``copy`` row repeats the item's last computed verdict and
    builds no lift.  On a shift, ``shift_basis`` builds the oracle and
    ``shift_check`` replaces the item's check."""
    level: str
    item: str
    shift_basis: tuple = _DEFAULT_BASIS
    shift_check: Callable[..., Verdict] | None = None
    when: str = ""
    item_id: str = ""
    note: str = ""
    in_matrix: bool = True
    copy: bool = False


_F0_FAILS = "expected to fail on a multi-height enumeration"

_ROWS = {
    "transitivity": (
        _Row("base", "weak-mixing"),
        _Row("hyper", "transitive"),
        _Row("hyper", "weak-mixing", shift_check=lambda t, run:
             is_weakly_mixing(t, method="lemma")),
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
        _Row("fuzzy", "F-mixing", when="on a table"),
    ),
    "mild-mixing": (
        _Row("base", "mildly-mixing"),
        _Row("hyper", "mildly-mixing", _ONE_COMPONENT),
        _Row("fuzzy", "mildly-mixing"),
    ),
    "a-transitivity": (
        _Row("base", "wm-and-a-transitive"),
        _Row("hyper", "a-transitive", _ONE_COMPONENT),
        _Row("fuzzy", "a-transitive"),
    ),
    "equicontinuity": (
        _Row("base", "equicontinuous"),
        _Row("hyper", "equicontinuous"),
        # on one point the F0 lift puts its distinct heights at distance 0
        _Row("F0", "equicontinuous", when="nontrivial",
             item_id="fuzzy-equicontinuous"),
    ),
    # Every level reads the base displacement curve.  Singleton lemma: max
    # over nonempty A of d_H(T^n(A), A) is max over x of d(T^n(x), x),
    # since singletons attain it and each point of A moves at most that
    # far.  Each fuzzy slice displaces like the subset lift: some cut of
    # its states is any given subset, and cuts commute with Zadeh's
    # extension.
    "uniform-rigidity": (
        _Row("base", "uniformly-rigid"),
        _Row("hyper", "uniformly-rigid", note="singleton lemma", copy=True),
        *(_Row(level, "uniformly-rigid", note="levelwise cut reduction",
               copy=True) for level in ("F0", "eq", "ge")),
    ),
    "proximality": (
        _Row("hyper", "proximal"),
        _Row("base", "diam-decay", item_id="diam-decay"),
        _Row("fuzzy", "proximal"),
        _Row("F0", "proximal", when="multi-height", in_matrix=False,
             note="states of different heights stay a diameter apart, so "
                  "the mixed-height system is expected non-proximal"),
    ),
    "height-invariance": (
        _Row("all", "height-obstruction", item_id="height-obstruction"),
        _Row("F0", "transitive", item_id="f0-not-transitive",
             when="nontrivial", in_matrix=False, note=_F0_FAILS),
        _Row("F0", "proximal", item_id="f0-not-proximal",
             when="nontrivial", in_matrix=False, note=_F0_FAILS),
    ),
    "cut-lemma": (
        _Row("all", "cut-commutation", item_id="cut-commutation"),
    ),
}

THEOREM_IDS = tuple(_ROWS)


def _verdict(row: _Row, key, run: _Run) -> Verdict:
    """The verdict of a row that is no copy, on the instance of that key."""
    if isinstance(run.system, SystemMap):
        return _ITEMS[row.item][1](run.lift(key), run)
    options, note = row.shift_basis
    oracle = (ShiftDyn if row.level == "base" else HyperShiftDyn)(
        run.system, **options)
    v = (row.shift_check or _ITEMS[row.item][1])(oracle, run)
    return replace(v, note=note) if note else v


def _rows_items(rows: tuple[_Row, ...], run: _Run) -> list[ReportItem]:
    """Run a theorem's rows in declared order, consecutive rows of one level
    instance by instance.  The run holds one lift at a time, so the rows
    that share a lift are declared together."""
    shift = not isinstance(run.system, SystemMap)
    items, computed = [], {}
    for level, group in itertools.groupby(rows, key=attrgetter("level")):
        group = [row for row in group if not row.when or _WHEN[row.when](run)]
        for name, key in _LEVELS[level](run):
            for row in group:
                if row.copy or (shift and level == "fuzzy"):
                    v = computed[row.item]
                    v = replace(v, exact=v.exact and not shift,
                                note=row.note or _ISOMETRIC)
                else:
                    v = computed[row.item] = _verdict(row, key, run)
                prop = _ITEMS[row.item][0].format(kind=run.family.kind,
                                                  exps=run.exps)
                items.append(_item_from_verdict(
                    row.item_id or f"{name}-{row.item}", prop, name, v,
                    row.in_matrix, row.note))
    return items


def verify_theorem(theorem: str, system, *, m: int = 2,
                   lambdas: Sequence[Fraction] | None = None,
                   eps=None, exponents: Sequence[int] | None = None,
                   g: GFunction | None = None, catalog=None,
                   family: FamilyClassifier | None = None
                   ) -> EquivalenceReport:
    """Evaluate every item of the named equivalence on one instance.

    Levels are the base system, the subset lift, and fuzzy slices for each
    height in ``lambdas`` (defaulting to all grid levels).  Returns the
    finalized report; the red-alert flag marks exact-mode disagreements.
    """
    rows = _ROWS.get(theorem)
    if rows is None:
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
              ",".join(str(e) for e in exponents)}
    report = EquivalenceReport(theorem, label, config)
    run = _Run(system, grid, lams, eps,
               tuple(exponents) if exponents is not None else (1, 2), g,
               catalog,
               family if family is not None else FamilyClassifier("thick"))
    if not isinstance(system, SystemMap) and any(
            row.level not in _SHIFT_LEVELS for row in rows):
        raise InputError(f"theorem {theorem!r} needs a finite table system")
    report.items = _rows_items(rows, run)
    return report.finalize()
