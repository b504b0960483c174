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

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .analysis import (HyperShiftDyn, ShiftDyn, Verdict, diam_decay,
                       equicontinuity_modulus, is_a_transitive,
                       is_F_transitive, is_mildly_mixing_bounded, is_mixing,
                       is_proximal, is_transitive, is_uniformly_rigid,
                       is_weakly_mixing)
from .catalog import THEOREM_IDS
from .errors import InputError
from .families import FamilyClassifier, thick_family
from .fuzzy import (DEFAULT_STATE_CAP, FuzzySet, GFunction, LevelGrid,
                    alpha_cut, enumerate_fuzzy, enumeration_cost,
                    fuzzy_lift_system, g_fuzzify_apply, xi_of)
from .hyperspace import hyperspace_displacement_curve, lift_system
from .spaces import SystemMap, as_fraction, iterate_tables


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


def _fuzzy_slice(sys: SystemMap, grid: LevelGrid, constraint, cap: int) -> SystemMap:
    return fuzzy_lift_system(sys, grid, constraint, cap=cap)


# -- per-theorem handlers ----------------------------------------------------


def _transitivity_items(system, grid, lambdas, horizon, cap):
    items = []
    if isinstance(system, SystemMap):
        items.append(_item_from_verdict(
            "base-weak-mixing", "weakly mixing", "base",
            is_weakly_mixing(system, horizon=horizon)))
        lift = lift_system(system)
        items.append(_item_from_verdict(
            "hyper-transitive", "transitive", "hyper",
            is_transitive(lift, horizon=horizon)))
        items.append(_item_from_verdict(
            "hyper-weak-mixing", "weakly mixing", "hyper",
            is_weakly_mixing(lift, horizon=horizon)))
        for lam in lambdas:
            fl = _fuzzy_slice(system, grid, ("eq", lam), cap)
            items.append(_item_from_verdict(
                f"fuzzy({lam})-transitive", "transitive", f"fuzzy({lam})",
                is_transitive(fl, horizon=horizon)))
            items.append(_item_from_verdict(
                f"fuzzy({lam})-weak-mixing", "weakly mixing", f"fuzzy({lam})",
                is_weakly_mixing(fl, horizon=horizon)))
        return items
    shift = system
    sd = ShiftDyn(shift)
    hd = HyperShiftDyn(shift)
    items.append(_item_from_verdict(
        "base-weak-mixing", "weakly mixing", "base",
        is_weakly_mixing(sd, horizon=horizon)))
    k_tr = is_transitive(hd, horizon=horizon)
    k_wm = is_weakly_mixing(hd, horizon=horizon, method="lemma")
    items.append(_item_from_verdict("hyper-transitive", "transitive",
                                    "hyper", k_tr))
    items.append(_item_from_verdict("hyper-weak-mixing", "weakly mixing",
                                    "hyper", k_wm))
    for lam in lambdas:
        items.append(ReportItem(
            f"fuzzy({lam})-transitive", "transitive", f"fuzzy({lam})",
            k_tr.status, False, k_tr.witnesses,
            note="indicator states carry the subset system isometrically"))
        items.append(ReportItem(
            f"fuzzy({lam})-weak-mixing", "weakly mixing", f"fuzzy({lam})",
            k_wm.status, False, k_wm.witnesses,
            note="indicator states carry the subset system isometrically"))
    return items


def _mixing_items(system, grid, lambdas, horizon, cap):
    items = []
    if isinstance(system, SystemMap):
        items.append(_item_from_verdict(
            "base-mixing", "mixing", "base", is_mixing(system, horizon=horizon)))
        lift = lift_system(system)
        items.append(_item_from_verdict(
            "hyper-mixing", "mixing", "hyper", is_mixing(lift, horizon=horizon)))
        for lam in lambdas:
            fl = _fuzzy_slice(system, grid, ("eq", lam), cap)
            items.append(_item_from_verdict(
                f"fuzzy({lam})-mixing", "mixing", f"fuzzy({lam})",
                is_mixing(fl, horizon=horizon)))
        return items
    sd = ShiftDyn(system)
    hd = HyperShiftDyn(system)
    base = is_mixing(sd, horizon=horizon)
    hyper = is_mixing(hd, horizon=horizon)
    items.append(_item_from_verdict("base-mixing", "mixing", "base", base))
    items.append(_item_from_verdict("hyper-mixing", "mixing", "hyper", hyper))
    for lam in lambdas:
        items.append(ReportItem(
            f"fuzzy({lam})-mixing", "mixing", f"fuzzy({lam})",
            hyper.status, False, hyper.witnesses,
            note="indicator states carry the subset system isometrically"))
    return items


def _f_mixing_items(system, grid, lambdas, horizon, cap,
                    family: FamilyClassifier):
    items = []
    fam = family
    if isinstance(system, SystemMap):
        items.append(_item_from_verdict(
            "base-F-mixing", f"{fam.kind}-mixing", "base",
            is_F_transitive(system, fam, horizon=horizon, mixing=True)))
        lift = lift_system(system)
        items.append(_item_from_verdict(
            "hyper-F-transitive", f"{fam.kind}-transitive", "hyper",
            is_F_transitive(lift, fam, horizon=horizon)))
        items.append(_item_from_verdict(
            "hyper-F-mixing", f"{fam.kind}-mixing", "hyper",
            is_F_transitive(lift, fam, horizon=horizon, mixing=True)))
        for lam in lambdas:
            fl = _fuzzy_slice(system, grid, ("eq", lam), cap)
            items.append(_item_from_verdict(
                f"fuzzy({lam})-F-transitive", f"{fam.kind}-transitive",
                f"fuzzy({lam})", is_F_transitive(fl, fam, horizon=horizon)))
            items.append(_item_from_verdict(
                f"fuzzy({lam})-F-mixing", f"{fam.kind}-mixing",
                f"fuzzy({lam})",
                is_F_transitive(fl, fam, horizon=horizon, mixing=True)))
        return items
    sd = ShiftDyn(system, cylinder_length=2)
    hd = HyperShiftDyn(system, max_components=1)
    hd_short = HyperShiftDyn(system, cylinder_length=2, max_components=1)
    base = is_F_transitive(sd, fam, horizon=horizon, mixing=True)
    h_tr = is_F_transitive(hd, fam, horizon=horizon)
    h_mx = is_F_transitive(hd_short, fam, horizon=horizon, mixing=True)
    items.append(_item_from_verdict("base-F-mixing", f"{fam.kind}-mixing",
                                    "base", base,
                                    note="length-2 cylinder basis"))
    items.append(_item_from_verdict("hyper-F-transitive",
                                    f"{fam.kind}-transitive", "hyper", h_tr,
                                    note="single-component basis"))
    items.append(_item_from_verdict("hyper-F-mixing", f"{fam.kind}-mixing",
                                    "hyper", h_mx,
                                    note="single-component, length-2 basis"))
    for lam in lambdas:
        items.append(ReportItem(
            f"fuzzy({lam})-F-transitive", f"{fam.kind}-transitive",
            f"fuzzy({lam})", h_tr.status, False, h_tr.witnesses,
            note="indicator states carry the subset system isometrically"))
    return items


def _mild_items(system, grid, lambdas, horizon, cap, catalog):
    items = []
    if isinstance(system, SystemMap):
        items.append(_item_from_verdict(
            "base-mildly-mixing", "mildly mixing", "base",
            is_mildly_mixing_bounded(system, catalog, horizon)))
        lift = lift_system(system)
        items.append(_item_from_verdict(
            "hyper-mildly-mixing", "mildly mixing", "hyper",
            is_mildly_mixing_bounded(lift, catalog, horizon)))
        for lam in lambdas:
            fl = _fuzzy_slice(system, grid, ("eq", lam), cap)
            items.append(_item_from_verdict(
                f"fuzzy({lam})-mildly-mixing", "mildly mixing",
                f"fuzzy({lam})",
                is_mildly_mixing_bounded(fl, catalog, horizon)))
        return items
    sd = ShiftDyn(system)
    hd = HyperShiftDyn(system, max_components=1)
    base = is_mildly_mixing_bounded(sd, catalog, horizon)
    hyper = is_mildly_mixing_bounded(hd, catalog, horizon)
    items.append(_item_from_verdict("base-mildly-mixing", "mildly mixing",
                                    "base", base))
    items.append(_item_from_verdict("hyper-mildly-mixing", "mildly mixing",
                                    "hyper", hyper,
                                    note="single-component basis"))
    for lam in lambdas:
        items.append(ReportItem(
            f"fuzzy({lam})-mildly-mixing", "mildly mixing", f"fuzzy({lam})",
            hyper.status, False, hyper.witnesses,
            note="indicator states carry the subset system isometrically"))
    return items


def _a_transitivity_items(system, grid, lambdas, horizon, cap, exponents):
    items = []
    exps = tuple(exponents)
    if isinstance(system, SystemMap):
        wm = is_weakly_mixing(system, horizon=horizon)
        at = is_a_transitive(system, exps, horizon=horizon)
        both = ("holds" if wm.holds and at.holds else "fails")
        items.append(ReportItem(
            "base-wm-and-a-transitive", f"weakly mixing and {exps}-transitive",
            "base", both, wm.exact and at.exact,
            witnesses=wm.witnesses[:2] + at.witnesses[:2]))
        lift = lift_system(system)
        items.append(_item_from_verdict(
            "hyper-a-transitive", f"{exps}-transitive", "hyper",
            is_a_transitive(lift, exps, horizon=horizon)))
        for lam in lambdas:
            fl = _fuzzy_slice(system, grid, ("eq", lam), cap)
            items.append(_item_from_verdict(
                f"fuzzy({lam})-a-transitive", f"{exps}-transitive",
                f"fuzzy({lam})", is_a_transitive(fl, exps, horizon=horizon)))
        return items
    sd = ShiftDyn(system)
    hd = HyperShiftDyn(system, max_components=1)
    wm = is_weakly_mixing(sd, horizon=horizon)
    at = is_a_transitive(sd, exps, horizon=horizon)
    both = "holds" if wm.holds and at.holds else "fails"
    items.append(ReportItem(
        "base-wm-and-a-transitive", f"weakly mixing and {exps}-transitive",
        "base", both, False, witnesses=at.witnesses[:2]))
    hyper = is_a_transitive(hd, exps, horizon=horizon)
    items.append(_item_from_verdict(
        "hyper-a-transitive", f"{exps}-transitive", "hyper", hyper,
        note="single-component basis"))
    for lam in lambdas:
        items.append(ReportItem(
            f"fuzzy({lam})-a-transitive", f"{exps}-transitive",
            f"fuzzy({lam})", hyper.status, False, hyper.witnesses,
            note="indicator states carry the subset system isometrically"))
    return items


def _equicontinuity_items(system, grid, horizon, cap, eps):
    sys = _require_finite(system, "equicontinuity")
    if eps is None:
        eps = sys.space.min_positive_distance() or Fraction(1)
    items = []
    for item_id, level, target in (
            ("base-equicontinuous", "base", sys),
            ("hyper-equicontinuous", "hyper", lift_system(sys)),
            ("fuzzy-equicontinuous", "fuzzy(F0)",
             _fuzzy_slice(sys, grid, "nonempty", cap))):
        delta, cert = equicontinuity_modulus(target, eps)
        ok = delta is not None and delta > 0
        wit = (("eps", str(eps)), ("delta", str(delta)))
        if cert:
            wit += (("violator", (cert["x"], cert["y"], cert["n"])),)
        items.append(ReportItem(item_id, "equicontinuous", level,
                                "holds" if ok else "fails", True,
                                witnesses=wit))
    return items


#: slices bigger than this use the cut reduction even when they would fit
#: the global enumeration cap; both routes are exact and cross-checked
RIGIDITY_MATERIALIZE_CAP = 4096


def _fuzzy_rigidity_witness(sys, grid, constraint, cap, eps, bound):
    """(witness n or None, exactness note) for a fuzzy slice; materializes
    small slices and otherwise uses the levelwise cut reduction, under
    which every slice displaces exactly like the subset lift."""
    cost = enumeration_cost(len(sys.space.points), grid, constraint)
    if cost <= min(cap, RIGIDITY_MATERIALIZE_CAP):
        lifted = _fuzzy_slice(sys, grid, constraint, cap)
        return is_uniformly_rigid(lifted, eps), "enumerated states"
    curve = hyperspace_displacement_curve(sys, bound)
    for n in range(1, bound):
        if curve[n] < eps:
            return n, "levelwise cut reduction"
    return None, "levelwise cut reduction"


def _uniform_rigidity_items(system, grid, lambdas, horizon, cap, eps):
    sys = _require_finite(system, "uniform-rigidity")
    if eps is None:
        mp = sys.space.min_positive_distance()
        eps = (mp / 2) if mp else Fraction(1, 2)
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per + 1
    items = []

    base_n = is_uniformly_rigid(sys, eps, bound)
    items.append(ReportItem(
        "base-uniformly-rigid", "uniformly rigid", "base",
        "holds" if base_n is not None else "fails", True,
        witnesses=(("witness_n", base_n),), note=f"eps={eps}"))

    curve = hyperspace_displacement_curve(sys, bound)
    hyper_n = next((n for n in range(1, bound) if curve[n] < eps), None)
    items.append(ReportItem(
        "hyper-uniformly-rigid", "uniformly rigid", "hyper",
        "holds" if hyper_n is not None else "fails", True,
        witnesses=(("witness_n", hyper_n),), note="subset displacement scan"))

    f0_n, f0_note = _fuzzy_rigidity_witness(sys, grid, "nonempty", cap, eps,
                                            bound)
    items.append(ReportItem(
        "fuzzy(F0)-uniformly-rigid", "uniformly rigid", "fuzzy(F0)",
        "holds" if f0_n is not None else "fails", True,
        witnesses=(("witness_n", f0_n),), note=f0_note))

    for kind in ("eq", "ge"):
        for lam in lambdas:
            n_w, note = _fuzzy_rigidity_witness(sys, grid, (kind, lam), cap,
                                                eps, bound)
            items.append(ReportItem(
                f"fuzzy({kind} {lam})-uniformly-rigid", "uniformly rigid",
                f"fuzzy({kind} {lam})",
                "holds" if n_w is not None else "fails", True,
                witnesses=(("witness_n", n_w),), note=note))
    return items


def _proximality_items(system, grid, lambdas, horizon, cap):
    sys = _require_finite(system, "proximality")
    items = []
    lift = lift_system(sys)
    items.append(_item_from_verdict(
        "hyper-proximal", "proximal", "hyper", is_proximal(lift)))
    decay = diam_decay(sys, horizon)
    reaches = next((n for n, v in enumerate(decay) if v == 0), None)
    items.append(ReportItem(
        "diam-decay", "image diameters reach zero", "base",
        "holds" if reaches is not None else "fails", True,
        witnesses=(("first_zero_at", reaches),
                   ("final", str(decay[-1])))))
    for lam in lambdas:
        fl = _fuzzy_slice(sys, grid, ("eq", lam), cap)
        items.append(_item_from_verdict(
            f"fuzzy({lam})-proximal", "proximal", f"fuzzy({lam})",
            is_proximal(fl)))
    if grid.m >= 2 and sys.space.nontrivial:
        f0 = _fuzzy_slice(sys, grid, "nonempty", cap)
        v = is_proximal(f0)
        items.append(_item_from_verdict(
            "fuzzy(F0)-proximal", "proximal", "fuzzy(F0)", v,
            in_matrix=False,
            note="states of different heights stay a diameter apart, so "
                 "the mixed-height system is expected non-proximal"))
    return items


def _height_invariance_items(system, grid, horizon, cap):
    sys = _require_finite(system, "height-invariance")
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per + 1
    lift = _fuzzy_slice(sys, grid, "all", cap)
    space = lift.space
    states = space.points
    heights = [max(s) for s in states]
    diam = sys.space.diam
    tables = iterate_tables(lift, bound)
    bad = None
    checked = 0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if heights[i] == heights[j]:
                continue
            for tbl in tables:
                checked += 1
                if space.d_by_index(tbl[i], tbl[j]) != diam:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad:
            break
    items = [ReportItem(
        "height-obstruction", "distinct heights stay a diameter apart",
        "fuzzy(all)", "fails" if bad else "holds", True,
        witnesses=(("pairs_times_checked", checked),))]
    if sys.space.nontrivial:
        f0 = _fuzzy_slice(sys, grid, "nonempty", cap)
        items.append(_item_from_verdict(
            "f0-not-transitive", "transitive", "fuzzy(F0)",
            is_transitive(f0), in_matrix=False,
            note="expected to fail on a multi-height enumeration"))
        items.append(_item_from_verdict(
            "f0-not-proximal", "proximal", "fuzzy(F0)",
            is_proximal(f0), in_matrix=False,
            note="expected to fail on a multi-height enumeration"))
    return items


def _cut_lemma_items(system, grid, horizon, cap, g, sample_cap=256, seed=11):
    sys = _require_finite(system, "cut-lemma")
    g = g if g is not None else GFunction.identity(grid)
    n_max = horizon if horizon is not None else 6
    total = enumeration_cost(len(sys.space.points), grid, "all")
    if total <= cap:
        states = list(enumerate_fuzzy(sys.space, grid, "all", cap=cap))
        note = "all states"
    else:
        rng = random.Random(seed)
        choices = grid.with_zero()
        states = []
        for _ in range(sample_cap):
            combo = tuple(rng.choice(choices)
                          for _ in range(len(sys.space.points)))
            states.append(FuzzySet(sys.space, grid, combo))
        note = f"{sample_cap} sampled states (seed {seed})"
    checked = 0
    mismatch = None
    tables = iterate_tables(sys, n_max + 1)
    xi = xi_of(g)
    transfer = [{alpha: alpha for alpha in grid.levels}]  # xi^n per level
    for _ in range(n_max):
        transfer.append({alpha: xi[level]
                         for alpha, level in transfer[-1].items()})
    pts = sys.space.points
    idx = sys.space.index
    for a in states:
        current = a
        for n in range(1, n_max + 1):
            current = g_fuzzify_apply(sys, g, current)
            tbl = tables[n]
            for alpha in grid.levels:
                lhs = frozenset(alpha_cut(current, alpha).members)
                level = transfer[n][alpha]
                rhs = frozenset(pts[tbl[idx(p)]]
                                for p in alpha_cut(a, level).members)
                checked += 1
                if lhs != rhs:
                    mismatch = (repr(a), n, str(alpha))
                    break
            if mismatch:
                break
        if mismatch:
            break
    status = "fails" if mismatch else "holds"
    wit = (("equalities_checked", checked),)
    if mismatch:
        wit += (("mismatch", mismatch),)
    return [ReportItem("cut-commutation",
                       "iterated cuts move by the level transfer",
                       "fuzzy(all)", status, note == "all states",
                       witnesses=wit, note=note)]


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
    if theorem not in THEOREM_IDS:
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

    if theorem == "transitivity":
        report.items = _transitivity_items(system, grid, lams, horizon,
                                           state_cap)
    elif theorem == "mixing":
        report.items = _mixing_items(system, grid, lams, horizon, state_cap)
    elif theorem == "f-mixing":
        fam = family if family is not None else thick_family()
        report.items = _f_mixing_items(system, grid, lams, horizon,
                                       state_cap, fam)
    elif theorem == "mild-mixing":
        report.items = _mild_items(system, grid, lams, horizon, state_cap,
                                   catalog)
    elif theorem == "a-transitivity":
        exps = exponents if exponents is not None else (1, 2)
        report.items = _a_transitivity_items(system, grid, lams, horizon,
                                             state_cap, exps)
    elif theorem == "equicontinuity":
        report.items = _equicontinuity_items(system, grid, horizon,
                                             state_cap, eps)
    elif theorem == "uniform-rigidity":
        report.items = _uniform_rigidity_items(system, grid, lams, horizon,
                                               state_cap, eps)
    elif theorem == "proximality":
        report.items = _proximality_items(system, grid, lams, horizon,
                                          state_cap)
    elif theorem == "height-invariance":
        report.items = _height_invariance_items(system, grid, horizon,
                                                state_cap)
    else:
        report.items = _cut_lemma_items(system, grid, horizon, state_cap, g)
    return report.finalize()
