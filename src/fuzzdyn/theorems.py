"""Equivalence harness: evaluate every side of a known equivalence on the
same instance (base system, subset lift, fuzzy lifts per height) and report
per-item verdicts with an agreement matrix.

An exact-mode disagreement between items of one equivalence is an
implementation-bug oracle, not mathematics; it raises a red alert carrying
a replayable payload, and the CLI turns that into its own exit code.
Horizon-limited items can disagree without an alert (their evidence is
bounded), though the matrix still records the inconsistency.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .analysis import (DEFAULT_CYLINDER_LENGTH, HyperShiftDyn, ShiftDyn,
                       Verdict, _positive_eps, _rigidity_verdict, diam_decay,
                       displacement_curve, equicontinuity_modulus,
                       is_a_transitive, is_F_transitive,
                       is_mildly_mixing_bounded, is_mixing, is_proximal,
                       is_transitive, is_weakly_mixing)
from .errors import InputError
from .families import FamilyClassifier, thick_family
from .fuzzy import (DEFAULT_STATE_CAP, FuzzySet, GFunction, LevelGrid,
                    _code, _code_heights, _code_steps, _cut_masks,
                    _cut_reader, _g_levels, _lift_table, _renderer,
                    enumeration_cost, fuzzy_lift_system, xi_of)
from .hyperspace import _mask_image, lift_system
from .spaces import SystemMap, _rho, as_fraction, point_label


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


def _require_finite(system, theorem: str) -> SystemMap:
    if not isinstance(system, SystemMap):
        raise InputError(f"theorem {theorem!r} needs a finite table system")
    return system


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
    bases = {}  # cylinder length -> the one ShiftDyn, word-pair memo shared
    for row in rows:
        if row.level == "fuzzy":
            continue
        options, note = row.shift_basis
        length = options.get("cylinder_length", DEFAULT_CYLINDER_LENGTH)
        if length not in bases:
            bases[length] = ShiftDyn(system, length)
        oracle = bases[length] if row.level == "base" else HyperShiftDyn(
            system, **options, base=bases[length])
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


def _equicontinuity_items(system, run: _Run) -> list[ReportItem]:
    sys = _require_finite(system, "equicontinuity")
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


def _uniform_rigidity_items(system, run: _Run) -> list[ReportItem]:
    """Every level reads the base displacement curve.  Singleton lemma:
    max over nonempty A of d_H(T^n(A), A) is max over x of d(T^n(x), x),
    since singletons attain it and each point of A moves at most that far.
    Each fuzzy slice displaces like the subset lift: some cut of its states
    is any given subset, and cuts commute with Zadeh's extension."""
    sys = _require_finite(system, "uniform-rigidity")
    eps = run.eps
    if eps is None:
        mp = sys.space.min_positive_distance()
        eps = (mp / 2) if mp else Fraction(1, 2)
    eps = _positive_eps(eps)
    pre, per = sys.eventual_period()
    bound = run.horizon if run.horizon is not None else pre + per + 1
    curve = displacement_curve(sys, min(bound, pre + per + 1))
    prop = "uniformly rigid"
    slices = ["F0"] + [f"{kind} {lam}" for kind in ("eq", "ge")
                       for lam in run.lambdas]
    levels = ([("base", f"eps={eps}"), ("hyper", "singleton lemma")]
              + [(f"fuzzy({name})", "levelwise cut reduction")
                 for name in slices])
    return [_item_from_verdict(f"{level}-uniformly-rigid", prop, level,
                               _rigidity_verdict(curve, eps, bound, note))
            for level, note in levels]


def _proximality_items(system, run: _Run) -> list[ReportItem]:
    sys = _require_finite(system, "proximality")
    grid = run.grid
    items = []
    lift = lift_system(sys)
    items.append(_item_from_verdict(
        "hyper-proximal", "proximal", "hyper", is_proximal(lift)))
    decay = diam_decay(sys, run.horizon)
    reaches = next((n for n, v in enumerate(decay) if v == 0), None)
    items.append(ReportItem(
        "diam-decay", "image diameters reach zero", "base",
        "holds" if reaches is not None else "fails", True,
        witnesses=(("first_zero_at", reaches),
                   ("final", str(decay[-1])))))
    for lam in run.lambdas:
        fl = fuzzy_lift_system(sys, grid, ("eq", lam), cap=run.cap)
        items.append(_item_from_verdict(
            f"fuzzy({lam})-proximal", "proximal", f"fuzzy({lam})",
            is_proximal(fl)))
    if grid.m >= 2 and sys.space.nontrivial:
        f0 = fuzzy_lift_system(sys, grid, "nonempty", cap=run.cap)
        v = is_proximal(f0)
        items.append(_item_from_verdict(
            "fuzzy(F0)-proximal", "proximal", "fuzzy(F0)", v,
            in_matrix=False,
            note="states of different heights stay a diameter apart, so "
                 "the mixed-height system is expected non-proximal"))
    return items


def _height_invariance_items(system, run: _Run) -> list[ReportItem]:
    """Height-preservation lemma: Zadeh's extension of a total map keeps
    every height, and two states of heights h1 < h2 are a diameter apart
    (their cuts at h2 differ in emptiness).  So distinct heights stay a
    diameter apart iff the lift table preserves heights: one O(S) pass
    over the F0 lift, whose only missing state, the empty one, is fixed.
    The witness counts the (pair, step) reads of a scan of every
    distinct-height pair of all S states, the empty one included:
    (C(S,2) - sum_h C(S_h,2)) times the steps."""
    sys = _require_finite(system, "height-invariance")
    pre, per = sys.eventual_period()
    bound = run.horizon if run.horizon is not None else pre + per + 1
    f0 = fuzzy_lift_system(sys, run.grid, "nonempty", cap=run.cap)
    # the heights of every code, the empty one too; F0 state i is code i + 1
    heights = _code_heights(len(sys.space.points), run.grid.m + 1)
    moved = next((i for i, t in enumerate(f0.table)
                  if heights[t + 1] != heights[i + 1]), None)
    if moved is not None:
        raise RuntimeError(f"lift kernel bug: state "
                           f"{point_label(f0.space.points[moved])} "
                           f"changes height under Zadeh's extension")
    pairs = math.comb(len(heights), 2) - sum(
        math.comb(k, 2) for k in Counter(heights).values())
    # a pair scan reads T^0 .. T^(bound-1), and T^0 even at bound 0
    checked = pairs * max(bound, 1)
    items = [ReportItem(
        "height-obstruction", "distinct heights stay a diameter apart",
        "fuzzy(all)", "holds", True,
        witnesses=(("pairs_times_checked", checked),),
        note="height-preservation lemma")]
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


class _ImageMemo(dict):
    """T^n(mask) per cut mask, for one n, filled on first use."""

    def __init__(self, point_bits: list[int]):
        super().__init__()
        self.point_bits = point_bits

    def __missing__(self, mask: int) -> int:
        image = self[mask] = _mask_image(mask, self.point_bits)
        return image


def _cut_lemma_items(system, run: _Run, sample_cap=256,
                     seed=11) -> list[ReportItem]:
    """Cuts of the g-iterates are images of cuts moved by the level
    transfer: [G^n(a)]_alpha = T^n([a]_{xi^n(alpha)}), checked on state
    codes and cut bitmasks.  The count and the first mismatch are those of
    a scan state by state in code order, each state step by step.

    The left side steps every state at once with the code kernel: one index
    table of all states, or the sampled batch.  The right side reads
    T^n(mask) from a memo.  Only one step is held at a time, and stepping
    stops at the fold max(pre) + lcm(per) of T, g and xi: G^n(a)(x) is the
    max of g^n(a(y)) over the y with T^n(y) = x, so from the fold on every
    comparison repeats the one at n - lcm(per) >= max(pre), and the one at
    n = 0 holds.  So the first mismatch, if any, is before the fold, and
    the count over the whole horizon follows.  That holds for a wrong lift
    table too: a state's orbit leaves the true one at the first state it
    steps wrongly, which the true orbit reaches within the fold, and the
    mismatch shows at the next step."""
    sys = _require_finite(system, "cut-lemma")
    grid = run.grid
    m = grid.m
    radix = m + 1
    values = grid.with_zero()
    g = run.g if run.g is not None else GFunction.identity(grid)
    gint = _g_levels(grid, g)
    n_max = run.horizon if run.horizon is not None else 6
    n_pts = len(sys.space.points)
    if enumeration_cost(n_pts, grid, "all") <= run.cap:
        _, codes, step = _lift_table(sys, grid, ("all",), g, run.cap)
        cut_of = list(map(_cut_reader(n_pts, radix, m), codes))
        cuts_at = cut_of.__getitem__
        advance = partial(map, step.__getitem__)
        note = "all states"
    else:
        rng = random.Random(seed)
        levels = range(m + 1)
        codes = [_code([rng.choice(levels) for _ in range(n_pts)], radix)
                 for _ in range(sample_cap)]
        render = _renderer(n_pts, radix, levels)

        def cuts_at(code: int) -> tuple[int, ...]:
            return tuple(_cut_masks(render(code), m))
        cut_of = list(map(cuts_at, codes))
        advance = partial(_code_steps, n_pts, radix, sys.preimages(), gint)
        note = f"{sample_cap} sampled states (seed {seed})"
    level_of = {v: k for k, v in enumerate(values)}
    xi = xi_of(g)
    xint = [level_of[xi[v]] for v in values]  # xi on the integer levels
    folds = [_rho(tbl) for tbl in (sys.table, gint, xint)]
    horizon = min(n_max, max(f[0] for f in folds)
                  + math.lcm(*(f[1] for f in folds)))
    at = codes          # G^n of every state
    transfer = xint     # xi^n on the integer levels
    moved = sys.table   # T^n
    first = None        # (state, n, level index) of the first mismatch
    stop = len(codes)   # only states before a mismatch can be first
    for n in range(1, horizon + 1):
        if n > 1:
            transfer = [xint[k] for k in transfer]
            moved = [sys.table[t] for t in moved]
        at = list(advance(at))
        # the cut index of a level k at time n: [a]_{xi^n(k)} is
        # a_cuts[xi^n(k)-1]
        slots = [t - 1 for t in transfer[1:]]
        images = _ImageMemo([1 << t for t in moved])
        for i in range(stop):
            a_cuts = cut_of[i]
            lhs = cuts_at(at[i])
            rhs = tuple(map(images.__getitem__,
                            map(a_cuts.__getitem__, slots)))
            if lhs != rhs:
                k = next(k for k in range(m) if lhs[k] != rhs[k])
                first, stop = (i, n, k), i
                break
    wit = (("equalities_checked", len(codes) * m * n_max),)
    if first:
        i, n, k = first
        wit = (("equalities_checked", (i * n_max + n - 1) * m + k + 1),)
        fuzzy = FuzzySet(sys.space, grid,
                         _renderer(n_pts, radix, values)(codes[i]))
        wit += (("mismatch", (repr(fuzzy), n, str(values[k + 1]))),)
    return [ReportItem("cut-commutation",
                       "iterated cuts move by the level transfer",
                       "fuzzy(all)", "fails" if first else "holds",
                       note == "all states", witnesses=wit, note=note)]


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
        for lam in lams:
            if not grid.admits(lam) or lam <= 0:
                raise InputError(f"lambda {lam} is not a positive grid level")
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
               catalog, family if family is not None else thick_family())
    report.items = builder(system, run)
    return report.finalize()
