"""Return-time sets and dynamical property checkers.

Every checker returns a :class:`Verdict` that records whether its
quantifiers were exhausted.  On finite table systems the eventual period of
the map table makes all "for all n" quantifiers finite, so verdicts there
are exact.  On symbolic backends membership of each individual n in a
return-time set is exact, but tail claims and the open-set quantifier
(truncated to cylinders of bounded length) are horizon evidence and are
flagged as such.

Open-set quantifiers always range over a declared basis:

* finite backends: all singleton balls (radius below the minimum positive
  distance, so the ball is the point itself);
* symbolic backends: all legal cylinders up to a configured length;
* lifted enumerations: singleton balls of lifted states;
* hyperspace over a shift: Vietoris elements with a bounded number of
  cylinder components, decided through base return times.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InputError
from .families import FamilyClassifier, IndexSet, difference_set, fs_set
from .hyperspace import CompactSet
from .spaces import (MetricSpace, Point, SystemMap, _scaled_matrix,
                     as_fraction, iterate_tables, point_label)
from .symbolic import ShiftSystem

DEFAULT_SYMBOLIC_HORIZON = 64
DEFAULT_CYLINDER_LENGTH = 3
VIETORIS_COMPONENT_CAP = 2

#: generator triples behind the bounded difference-of-sums evidence
IP_WITNESS_GENERATORS = ((1, 2, 4), (2, 3, 7), (1, 3, 5), (3, 4, 9), (2, 5, 11))


# -- opens ----------------------------------------------------------------

class PointsOpen:
    """A finite open set of a table space (every subset is open here), held
    as point indices; its members and label are rendered on first use."""

    __slots__ = ("space", "indices", "_label", "_members")

    def __init__(self, space: MetricSpace, indices: frozenset,
                 label: str | None = None):
        self.space = space
        self.indices = indices
        self._label = label
        self._members = None

    @property
    def members(self) -> frozenset:
        if self._members is None:
            pts = self.space.points
            self._members = frozenset(pts[i] for i in self.indices)
        return self._members

    @property
    def label(self) -> str:
        if self._label is None:
            self._label = self._render_label()
        return self._label

    def _render_label(self) -> str:
        return "{" + ",".join(sorted(point_label(p)
                                     for p in self.members)) + "}"


class _SingletonOpen(PointsOpen):
    """The singleton ball B(x) of the singleton basis."""

    __slots__ = ()

    def _render_label(self) -> str:
        (i,) = self.indices
        return f"B({point_label(self.space.points[i])})"


@dataclass(frozen=True)
class CylinderOpen:
    """The set of shift points with the given legal prefix."""
    word: str


@dataclass(frozen=True)
class ProductOpen:
    """A box: one open per factor of a product system."""
    parts: tuple


@dataclass(frozen=True)
class VietorisOpen:
    """Hyperspace basis element built from base cylinders."""
    words: tuple


def open_label(u) -> str:
    if isinstance(u, PointsOpen):
        return u.label
    if isinstance(u, CylinderOpen):
        return f"[{u.word}]"
    if isinstance(u, ProductOpen):
        # B(x) x B(y) is B((x,y)) under the max metric
        if all(isinstance(p, _SingletonOpen) for p in u.parts):
            point = tuple(p.space.points[i] for p in u.parts for i in p.indices)
            return f"B({point_label(point)})"
        return "(" + ",".join(open_label(p) for p in u.parts) + ")"
    if isinstance(u, VietorisOpen):
        return "<" + ",".join(f"[{w}]" for w in u.words) + ">"
    raise InputError(f"not an open: {u!r}")


def points_open(space: MetricSpace, members: Iterable[Point],
                label: str | None = None) -> PointsOpen:
    indices = frozenset(space.index(p) for p in members)
    if not indices:
        raise InputError("empty open rejected")
    return PointsOpen(space, indices, label)


class _SingletonBasis(Sequence):
    """The singleton balls of a table space, one per point in point order;
    each open is built on first access and kept."""

    def __init__(self, space: MetricSpace):
        self.space = space
        self._opens: list[PointsOpen | None] = [None] * len(space.points)

    def __len__(self) -> int:
        return len(self._opens)

    def __getitem__(self, i: int) -> PointsOpen:
        i = range(len(self._opens))[i]
        hit = self._opens[i]
        if hit is None:
            hit = self._opens[i] = _SingletonOpen(self.space, frozenset((i,)))
        return hit

    def __iter__(self):
        if None in self._opens:
            return map(self.__getitem__, range(len(self._opens)))
        return iter(self._opens)


def singleton_basis(space: MetricSpace) -> Sequence[PointsOpen]:
    return _SingletonBasis(space)


def _open_indices(space: MetricSpace, u: PointsOpen) -> frozenset:
    """The indices in ``space`` of the points of u."""
    if u.space is space:
        return u.indices
    return frozenset(space.index(p) for p in u.members)


def validate_basis(space: MetricSpace, basis: Sequence[PointsOpen]) -> None:
    if not basis:
        raise InputError("empty basis")
    covered = set()
    for u in basis:
        indices = _open_indices(space, u)
        if not indices:
            raise InputError("basis contains an empty open")
        covered |= indices
    if len(covered) != len(space.points):
        raise InputError("basis does not cover the space")


def _checked_basis(dyn, basis) -> Sequence:
    """The oracle's default basis, or the caller's basis, which must cover
    the space of a table system (the default basis covers it already)."""
    if basis is None:
        return dyn.default_basis()
    if isinstance(basis, _BoxBasis):
        return basis
    basis = tuple(basis)
    if isinstance(dyn, TableDyn):
        validate_basis(dyn.sys.space, basis)
    return basis


# -- verdicts --------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of a checker run.

    ``exact`` is True only when every quantifier was exhausted (finite
    backends scanned past the eventual period, full declared basis).  A
    failing verdict always carries a replayable counterexample.
    """

    status: str                     # "holds" | "fails" | "inconclusive"
    exact: bool
    horizon: int | None = None
    witnesses: tuple = ()
    counterexample: tuple | None = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"


# -- dynamics oracles -------------------------------------------------------

class _Oracle:
    """Every oracle answers ``return_times(u, v, bound)`` with N(U, V) below
    the bound as one bitset: bit n is set iff T^n(U) meets V and n < bound.
    Scans read ``rows(basis, bound)``: one row per basis open U, in basis
    order, and the row yields N(U, V) for every V of the basis, in basis
    order, on demand."""

    def rows(self, basis, bound: int):
        return (self.row(u, basis, bound) for u in basis)

    def row(self, u, basis, bound: int):
        return (self.return_times(u, v, bound) for v in basis)


class TableDyn(_Oracle):
    """Return-time oracle for a finite table system; exact via the eventual
    period of the map table."""

    def __init__(self, sys: SystemMap):
        self.sys = sys

    def default_basis(self) -> Sequence[PointsOpen]:
        return singleton_basis(self.sys.space)

    def preperiod_period(self) -> tuple[int, int]:
        return self.sys.eventual_period()

    def _indices(self, u) -> frozenset:
        if not isinstance(u, PointsOpen):
            raise InputError("a table system quantifies over pointwise opens")
        return _open_indices(self.sys.space, u)

    def return_times(self, u: PointsOpen, v: PointsOpen, bound: int) -> int:
        return next(self._row(self._indices(u), (self._indices(v),), bound))

    def rows(self, basis, bound: int):
        if (isinstance(basis, _SingletonBasis)
                and basis.space is self.sys.space):
            n = len(basis)                  # point i is the set (i,)
            return (self._row((i,), zip(range(n)), bound) for i in range(n))
        sets = tuple(map(self._indices, basis))
        return (self._row(u, sets, bound) for u in sets)

    def _row(self, u, sets, bound: int):
        """One walk of the orbit of the point set u up to pre + per records,
        per point, the times n at which it lies in T^n(u); each target set
        collects its points' times (T^n(u) meets it iff some point of it
        lies in T^n(u)), then the period repeats."""
        pre, per = self.sys.eventual_period()
        tbl = self.sys.table
        walk = min(bound, pre + per)
        times: dict[int, int] = {}
        cur = u
        for n in range(walk):
            bit = 1 << n
            for i in cur:
                times[i] = times.get(i, 0) | bit
            cur = {tbl[i] for i in cur}
        mask = (1 << bound) - 1
        for v in sets:
            bits = 0
            for j in v:
                bits |= times.get(j, 0)
            cycle = bits >> pre
            for start in range(walk, bound, per):
                bits |= cycle << start
            yield bits & mask


class ShiftDyn(_Oracle):
    """Return-time oracle for cylinders of a shift of finite type.

    Each word pair is decided once per bound: the oracle keeps every bitset
    it computes, at most (cylinders)^2 x (distinct bounds) of them.  Only
    legal pairs get an entry, so every call with an illegal word is
    validated again and raises."""

    def __init__(self, shift: ShiftSystem,
                 cylinder_length: int = DEFAULT_CYLINDER_LENGTH):
        self.shift = shift
        self.cylinder_length = min(cylinder_length, shift.resolution)
        self._times: dict[tuple[str, str, int], int] = {}

    def default_basis(self) -> tuple[CylinderOpen, ...]:
        return tuple(CylinderOpen(w)
                     for w in self.shift.cylinders(self.cylinder_length))

    def preperiod_period(self) -> None:
        return None

    def word_times(self, u: str, v: str, bound: int) -> int:
        """N([u], [v]) below the bound."""
        key = (u, v, bound)
        bits = self._times.get(key)
        if bits is None:
            bits = self._times[key] = self.shift.return_bits(u, v, bound)
        return bits

    def return_times(self, u: CylinderOpen, v: CylinderOpen, bound: int) -> int:
        return self.word_times(u.word, v.word, bound)


def _dilate(bits: int, a: int, bound: int) -> int:
    """The bitset whose bit n < bound is bit a * n of ``bits``."""
    digits = format(bits, "b")[::-1][::a][:bound]   # bit 0 first
    return int(digits[::-1] or "0", 2)


class _BoxBasis(Sequence):
    """The boxes of the factor bases in product order, each built only when
    it is read by index; scans read rows by index and build none."""

    __slots__ = ("bases",)

    def __init__(self, bases: tuple):
        self.bases = bases

    def __len__(self) -> int:
        return math.prod(map(len, self.bases))

    def __getitem__(self, i: int) -> ProductOpen:
        i = range(len(self))[i]
        parts = []
        for basis in reversed(self.bases):
            i, r = divmod(i, len(basis))
            parts.append(basis[r])
        return ProductOpen(tuple(reversed(parts)))


class _LazyRow:
    """A factor row whose bitsets are computed on first iteration and kept;
    a later iteration reads the kept ones, then resumes the source."""

    __slots__ = ("_source", "_done")

    def __init__(self, source):
        self._source = source
        self._done: list[int] = []

    def __iter__(self):
        yield from self._done
        for bits in self._source:
            self._done.append(bits)
            yield bits


def _box_row(rows: list, acc: int):
    """The AND of one bitset from each factor row, in product order."""
    if len(rows) == 1:
        return map(acc.__and__, rows[0])
    rest = rows[1:]
    return itertools.chain.from_iterable(_box_row(rest, acc & bits)
                                         for bits in rows[0])


class ProductDyn(_Oracle):
    """Product of oracles with per-factor exponents; membership is decided
    coordinatewise: n is a return time iff a_i * n is one for each factor,
    so a box's row is the AND of its factors' dilated rows (Furstenberg
    1967).  Over a box basis each factor row comes from one scan of the
    factor and is kept only for this scan; any other basis is read
    pairwise."""

    def __init__(self, factors: Sequence[tuple[object, int]]):
        if not factors:
            raise InputError("empty factor list rejected")
        for _, e in factors:
            if e < 1:
                raise InputError("exponents must be positive")
        self.factors = tuple(factors)

    def default_basis(self) -> _BoxBasis:
        return _BoxBasis(tuple(dyn.default_basis() for dyn, _ in self.factors))

    def preperiod_period(self) -> tuple[int, int] | None:
        pre_star, per_star = 0, 1
        for dyn, a in self.factors:
            pp = dyn.preperiod_period()
            if pp is None:
                return None
            pre, per = pp
            pre_i = -(-pre // a)
            per_i = per // math.gcd(per, a)
            pre_star = max(pre_star, pre_i)
            per_star = per_star * per_i // math.gcd(per_star, per_i)
        return pre_star, per_star

    def _factor_rows(self, k: int, basis, bound: int):
        dyn, a = self.factors[k]
        rows = dyn.rows(basis, a * bound)
        if a == 1:
            return rows
        return ((_dilate(bits, a, bound) for bits in row) for row in rows)

    def return_times(self, u: ProductOpen, v: ProductOpen, bound: int) -> int:
        bits = (1 << bound) - 1
        for (dyn, a), up, vp in zip(self.factors, u.parts, v.parts):
            bits &= _dilate(dyn.return_times(up, vp, a * bound), a, bound)
        return bits

    def rows(self, basis, bound: int):
        if not isinstance(basis, _BoxBasis):
            yield from super().rows(basis, bound)
            return
        bases = basis.bases
        first, *rest = (map(_LazyRow, self._factor_rows(k, b, bound))
                        for k, b in enumerate(bases))
        # product order first reads a later factor's rows in index order,
        # under the first row of the first factor: each is pulled from its
        # factor's scan then and kept; a row of the first factor serves
        # consecutive boxes only
        kept: list[list[_LazyRow]] = [[] for _ in rest]
        full = (1 << bound) - 1
        for row in first:
            for index in itertools.product(*map(range, map(len, bases[1:]))):
                rows = [row]
                for got, source, i in zip(kept, rest, index):
                    if i == len(got):
                        got.append(next(source))
                    rows.append(got[i])
                yield _box_row(rows, full)


class HyperShiftDyn(_Oracle):
    """Hyperspace return times over a shift, on Vietoris elements whose
    components are base cylinders.

    For any system, T_K^n<U_1..U_p> meets <V_1..V_q> iff every U_i sends a
    point into some V_j at time n and every V_j receives one from some U_i;
    a finite set realizing the matching witnesses membership.  This reduces
    hyperspace membership to base membership exactly, read from the word
    pairs a base :class:`ShiftDyn` keeps.  A ``base`` passed in is shared,
    memo included, and fixes the cylinder length.
    """

    def __init__(self, shift: ShiftSystem,
                 cylinder_length: int = DEFAULT_CYLINDER_LENGTH,
                 max_components: int = VIETORIS_COMPONENT_CAP,
                 base: ShiftDyn | None = None):
        if base is None:
            base = ShiftDyn(shift, cylinder_length)
        elif base.shift is not shift:
            raise InputError("the base oracle is over another shift")
        self.shift = shift
        self.base = base
        self.cylinder_length = base.cylinder_length
        self.max_components = max_components

    def default_basis(self) -> tuple[VietorisOpen, ...]:
        cyls = self.shift.cylinders(self.cylinder_length)
        out = []
        for r in range(1, self.max_components + 1):
            for combo in itertools.combinations(cyls, r):
                out.append(VietorisOpen(tuple(combo)))
        return tuple(out)

    def preperiod_period(self) -> None:
        return None

    def return_times(self, u: VietorisOpen, v: VietorisOpen, bound: int) -> int:
        return next(self.row(u, (v,), bound))

    def row(self, u: VietorisOpen, basis, bound: int):
        times = self.base.word_times
        full = (1 << bound) - 1
        cols = {}   # base word V_j -> (N(U_i, V_j) for each U_i, their OR)
        for v in basis:
            bits = full
            sends = [0] * len(u.words)
            for vw in v.words:
                hit = cols.get(vw)
                if hit is None:
                    col = [times(uw, vw, bound) for uw in u.words]
                    hit = cols[vw] = col, functools.reduce(operator.or_, col)
                bits &= hit[1]                          # V_j receives
                sends = list(map(operator.or_, sends, hit[0]))
            for line in sends:                          # U_i sends
                bits &= line
            yield bits


def as_dyn(target):
    if isinstance(target, SystemMap):
        return TableDyn(target)
    if isinstance(target, ShiftSystem):
        return ShiftDyn(target)
    if isinstance(target, _Oracle):
        return target
    raise InputError(f"not a dynamical system: {target!r}")


def _coerce_open(dyn, u):
    """Allow raw point collections / words where opens are expected."""
    if isinstance(u, (PointsOpen, CylinderOpen, ProductOpen, VietorisOpen)):
        return u
    if isinstance(dyn, TableDyn):
        if isinstance(u, CompactSet):
            return points_open(dyn.sys.space, u.members)
        return points_open(dyn.sys.space, u)
    if isinstance(dyn, (ShiftDyn, HyperShiftDyn)) and isinstance(u, str):
        return CylinderOpen(u)
    raise InputError(f"cannot interpret {u!r} as an open set")


# -- return-time sets --------------------------------------------------------

def return_time_set(target, u, v, horizon: int | None = None) -> IndexSet:
    """N(U, V) = {n : T^n(U) meets V}, materialized up to the horizon.

    Finite backends default the horizon to preperiod + 2*period, which
    exhibits the full eventually periodic structure; membership of each
    listed n is exact on every backend.
    """
    dyn = as_dyn(target)
    u = _coerce_open(dyn, u)
    v = _coerce_open(dyn, v)
    if horizon is None:
        pp = dyn.preperiod_period()
        horizon = (pp[0] + 2 * pp[1]) if pp is not None else DEFAULT_SYMBOLIC_HORIZON
    return IndexSet.from_bits(horizon, dyn.return_times(u, v, horizon))


# -- orbits and recurrence ----------------------------------------------------

def _require_table(sys, what: str) -> SystemMap:
    if not isinstance(sys, SystemMap):
        raise InputError(f"{what} needs a finite table system; "
                         "use cylinder approximants on symbolic backends")
    return sys


def _positive_eps(eps) -> Fraction:
    eps = as_fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    return eps


def _recurrent_indices(sys: SystemMap) -> frozenset:
    """Indices of the points on cycles: the image of T^preperiod."""
    return frozenset(sys.preperiod_table())


# -- transitivity and mixing ---------------------------------------------------

def _effective_horizon(dyn, horizon: int | None) -> tuple[int, bool]:
    """(scan bound, exact?) for existence quantifiers over n: a scan to
    preperiod + period exhausts them."""
    pp = dyn.preperiod_period()
    if pp is not None:
        h = pp[0] + pp[1]
        if horizon is None or horizon >= h:
            return h, True
        return horizon, False
    return (horizon or DEFAULT_SYMBOLIC_HORIZON), False


def _scan(dyn, basis, bound: int):
    """(i, j, N(basis[i], basis[j]) below the bound) for every pair of basis
    indices, one oracle row per source index i; an open is built only when
    a checker labels it."""
    for i, row in enumerate(dyn.rows(basis, bound)):
        for j, bits in enumerate(row):
            yield i, j, bits


def _labels(basis, i: int, j: int) -> tuple[str, str]:
    return open_label(basis[i]), open_label(basis[j])


def _first(bits: int) -> int:
    """The least n whose bit is set in a nonzero bitset."""
    return (bits & -bits).bit_length() - 1


def is_transitive(target, basis=None, horizon: int | None = None) -> Verdict:
    """Every pair of basis opens communicates: N(U, V) is nonempty."""
    dyn = as_dyn(target)
    basis = _checked_basis(dyn, basis)
    bound, exact = _effective_horizon(dyn, horizon)
    witnesses = []
    for i, j, bits in _scan(dyn, basis, bound):
        if not bits:
            return Verdict("fails", exact, horizon=bound,
                           counterexample=_labels(basis, i, j),
                           note="orbit never meets the target ball" if exact
                                else "no return time below the horizon")
        if len(witnesses) < 8:
            witnesses.append(_labels(basis, i, j) + (_first(bits),))
    return Verdict("holds", exact, horizon=bound, witnesses=tuple(witnesses))


def _square(dyn, basis) -> tuple:
    """The 2-fold product oracle and, for a caller's basis (checked on the
    factor), its boxes; None stands for the product's default basis."""
    if basis is not None:
        basis = _checked_basis(dyn, basis)
        basis = _BoxBasis((basis, basis))
    return ProductDyn([(dyn, 1), (dyn, 1)]), basis


def is_weakly_mixing(target, basis=None, horizon: int | None = None,
                     method: str = "product") -> Verdict:
    """Transitivity of the 2-fold product, or the return-time overlap
    criterion N(U,U) meets N(U,V); the two must agree."""
    if method not in ("product", "lemma"):
        raise InputError("method must be 'product' or 'lemma'")
    dyn = as_dyn(target)
    if method == "product":
        v = is_transitive(*_square(dyn, basis), horizon=horizon)
        return replace(v, note="via 2-fold product")
    basis = _checked_basis(dyn, basis)
    bound, exact = _effective_horizon(dyn, horizon)
    witnesses = []
    size = len(basis)
    pairs = _scan(dyn, basis, bound)
    for i in range(size):
        row = list(itertools.islice(pairs, size))
        returns = row[i][2]                     # N(U, U)
        for _, j, bits in row:
            both = returns & bits
            if not both:
                return Verdict("fails", exact, horizon=bound,
                               counterexample=_labels(basis, i, j),
                               note="N(U,U) and N(U,V) never overlap "
                                    "below the horizon")
            if len(witnesses) < 8:
                witnesses.append(_labels(basis, i, j) + (_first(both),))
    return Verdict("holds", exact, horizon=bound, witnesses=tuple(witnesses),
                   note="via return-time overlap")


def is_mixing(target, basis=None, horizon: int | None = None) -> Verdict:
    """Every N(U, V) is cofinite.  Exact on finite tables through the
    eventual period; horizon-classified on symbolic backends."""
    dyn = as_dyn(target)
    basis = _checked_basis(dyn, basis)
    exact = isinstance(dyn, TableDyn)
    if exact:
        # cofinite iff every time from the preperiod on is a return time
        pre, per = dyn.sys.eventual_period()
        bound, tail_bound = pre + per, pre
    else:
        bound, _ = _effective_horizon(dyn, horizon)
        tail_bound = bound // 2
    worst_tail = 0
    full = (1 << bound) - 1
    for i, j, bits in _scan(dyn, basis, bound):
        missing = ~bits & full
        tail = missing.bit_length()
        if tail > tail_bound:
            example = _labels(basis, i, j)
            if exact:
                example += (pre + _first(missing >> pre),)
            return Verdict("fails", exact, horizon=bound,
                           counterexample=example,
                           note="a full residue class of times is missing"
                                if exact else "not cofinite at the horizon")
        worst_tail = max(worst_tail, tail)
    return Verdict("holds", exact, horizon=bound,
                   witnesses=(("tail_start", worst_tail),),
                   note="" if exact else "horizon evidence")


def is_F_transitive(target, family: FamilyClassifier, basis=None,
                    horizon: int | None = None, mixing: bool = False) -> Verdict:
    """Every N(U, V) belongs to the family.

    With ``mixing`` the check runs on the 2-fold product, over the boxes of
    the basis when one is given.  On finite tables the eventually periodic
    structure decides the built-in tail families exactly: a set with a
    nonempty periodic part has bounded gaps (syndetic and infinite
    coincide), and one with a full periodic part is cofinite (thick and
    cofinite coincide).  Sum-based membership stays bounded.
    """
    dyn = as_dyn(target)
    if mixing:
        dyn, basis = _square(dyn, basis)
    basis = _checked_basis(dyn, basis)
    pp = dyn.preperiod_period()
    finite = pp is not None
    if finite:
        pre, per = pp
        window = pre + 2 * per
    else:
        window, _ = _effective_horizon(dyn, horizon)
    exact_kinds = ("infinite", "syndetic", "cofinite", "thick")
    exact = finite and family.kind in exact_kinds
    detail = last = None
    for i, j, bits in _scan(dyn, basis, window):
        if exact:
            periodic_part = bits >> pre & ((1 << per) - 1)
            if family.kind in ("infinite", "syndetic"):
                ok = periodic_part != 0
            else:
                ok = periodic_part == (1 << per) - 1
        else:
            ok, detail = family.classify(IndexSet.from_bits(window, bits))
        if not ok:
            return Verdict("fails", exact, horizon=window,
                           counterexample=_labels(basis, i, j),
                           note=f"N(U,V) not {family.kind} "
                                f"({'exact' if exact else 'at horizon'})")
        last = bits
    if exact and last is not None:
        # the witness is read off the last pair's set at the window
        _, detail = family.classify(IndexSet.from_bits(window, last))
    wit = (("family", family.kind),)
    if detail and detail.get("witness") is not None:
        wit += (("witness", detail["witness"]),)
    return Verdict("holds", exact, horizon=window, witnesses=wit,
                   note="" if exact else "horizon evidence")


def is_a_transitive(target, exponents: Sequence[int],
                    horizon: int | None = None) -> Verdict:
    """Transitivity of the product advanced by the given exponent vector."""
    exps = tuple(exponents)
    if not exps or any(e < 1 for e in exps):
        raise InputError("exponent vector must be nonempty and positive")
    dyn = as_dyn(target)
    v = is_transitive(ProductDyn([(dyn, e) for e in exps]), horizon=horizon)
    return replace(v, note=f"exponents {exps}")


def weakly_disjoint(a, b, horizon: int | None = None) -> Verdict:
    """Transitivity of the heterogeneous product of the two systems."""
    v = is_transitive(ProductDyn([(as_dyn(a), 1), (as_dyn(b), 1)]),
                      horizon=horizon)
    return replace(v, note="product transitivity")


#: a finite table closes the quantifier (X x Y is Y when X is one point),
#: so a table target is its own last opponent and its verdict is exact
_TABLE_LEMMA = ("finite-table lemma: a transitive table is one c-cycle, "
                "and X x X is transitive only for c = 1")


def is_mildly_mixing_bounded(target, catalog: Sequence | None = None,
                             horizon: int | None = None) -> Verdict:
    """Weak disjointness from every member of a catalog of transitive
    systems.  The universal quantifier over all transitive systems is not
    finitely exhaustible, so on a shift a passing verdict is
    catalog-relative; a failing product is a genuine counterexample.
    Bounded difference-of-sums evidence is attached as a witness.
    """
    if catalog is None:
        from .catalog import transitive_catalog
        catalog = transitive_catalog()
    if not catalog:
        raise InputError("empty catalog rejected")
    table = isinstance(as_dyn(target), TableDyn)
    for member in list(catalog) + ([target] if table else []):
        v = weakly_disjoint(target, member, horizon=horizon)
        if not v.holds:
            label = member.label if hasattr(member, "label") else str(member)
            if member is target:
                return Verdict("fails", v.exact, v.horizon, note=_TABLE_LEMMA,
                               counterexample=("the target itself", label))
            return Verdict("fails", v.exact, v.horizon,
                           counterexample=("catalog member", label),
                           note="product with a transitive system is not "
                                "transitive")
    evidence = _ip_difference_evidence(target, horizon)
    return Verdict("holds", table, horizon=horizon,
                   witnesses=(("catalog", len(catalog)),
                              ("difference_sums_met", evidence)),
                   note=_TABLE_LEMMA if table else
                   "catalog-relative; universal quantifier over all "
                   "transitive systems not exhausted")


def _ip_difference_evidence(target, horizon: int | None) -> bool:
    """Do all basis return sets meet each bounded difference-of-sums set."""
    dyn = as_dyn(target)
    if isinstance(dyn, TableDyn):
        pre, per = dyn.sys.eventual_period()
        window = max(64, pre + 2 * per)
    else:
        window = horizon or DEFAULT_SYMBOLIC_HORIZON
    witness_bits = [sum(1 << n for n in
                        difference_set(fs_set(g, window)).members)
                    for g in IP_WITNESS_GENERATORS]
    return all(times & w for _, _, times in
               _scan(dyn, dyn.default_basis(), window) for w in witness_bits)


# -- metric behaviour ----------------------------------------------------------

def equicontinuity_modulus(sys: SystemMap, eps) -> Verdict:
    """Largest distance-value delta so that pairs within delta stay within
    eps under every iterate.

    On a finite space the candidates are the attained distances, and every
    pair at distance >= eps violates at step 0.  So delta is the least
    starting distance of a pair closer than eps whose orbit reaches eps
    (all strictly closer pairs are safe), else v*, the least attained
    distance >= eps, else the diameter when nothing violates.  Only pairs
    closer than eps get an orbit scan, and only when they could lower
    delta; when eps is at most the space's gap there are none, and the scan
    stops at the first pair at the gap.  The verdict holds when delta is
    positive; its witnesses are ``eps``, ``delta`` and, for any violation
    found, the ``violator`` (x, y, n): the first pair in index order at
    delta and its first violating step.
    """
    if not isinstance(sys, SystemMap):
        raise InputError("equicontinuity needs a finite table system")
    eps = _positive_eps(eps)
    space = sys.space
    n_pts = len(space.points)
    pre, per = sys.eventual_period()
    tables = iterate_tables(sys, pre + per)
    # a distance reaches eps iff its scaled integer reaches this
    reach = -(-eps.numerator * space.denom // eps.denominator)
    gap = space.gap if space.gap is not None and space.gap >= reach else None
    d = space.dist_int if gap is not None else space.scan_metric()
    near = far = None               # (d0, i, j, step) of the best violator
    for i, j in itertools.combinations(range(n_pts), 2):
        d0 = d(i, j)
        if d0 >= reach:
            if far is None or d0 < far[0]:
                far = (d0, i, j, 0)
                if d0 == gap:
                    break
        elif near is None or d0 < near[0]:
            step = next((step for step, tbl in enumerate(tables)
                         if d(tbl[i], tbl[j]) >= reach), None)
            if step is not None:
                near = (d0, i, j, step)
    best = near or far
    if best is None:
        delta = space.diam if n_pts > 1 else eps
    else:
        delta = Fraction(best[0], space.denom)
    wit = (("eps", str(eps)), ("delta", str(delta)))
    if best:
        _, i, j, step = best
        wit += (("violator", (point_label(space.points[i]),
                              point_label(space.points[j]), step)),)
    return Verdict("holds" if delta > 0 else "fails", True,
                   horizon=pre + per, witnesses=wit)


def modulus_curve(sys: SystemMap) -> list[tuple[Fraction, Fraction]]:
    """(eps, delta) of :func:`equicontinuity_modulus` at every positive
    distance value eps, in ascending eps, from one pass over the pairs.

    Let M(i, j) be the largest distance of a pair over T^0 ..
    T^(pre+per-1).  Then delta(eps) is the least starting distance over the
    pairs with M >= eps: a pair at or beyond eps violates at step 0, and a
    closer one violates iff its orbit reaches eps.  With no such pair it is
    the diameter, or eps on a one-point space.  The pass keeps the least
    starting distance for each distinct M, one row of M at a time.
    """
    _require_table(sys, "the equicontinuity modulus")
    space = sys.space
    eps_values = [v for v in space.distance_values() if v > 0]
    pre, per = sys.eventual_period()
    tables = iterate_tables(sys, pre + per)
    denom, mat = _scaled_matrix(space)
    n_pts = len(space.points)
    least: dict[int, int] = {}  # M -> least starting distance
    for i, row in enumerate(mat):
        starts = row[i + 1:]
        top = starts    # M(i, j) for j > i, one step at a time
        for tbl in tables[1:]:
            later = map(mat[tbl[i]].__getitem__,
                        itertools.islice(tbl, i + 1, None))
            top = [a if a > b else b for a, b in zip(top, later)]
        for d0, high in zip(starts, top):
            if least.get(high, d0 + 1) > d0:
                least[high] = d0
    out = []
    best = None         # the least d0 over the M >= eps
    tops = sorted(least)
    for eps in reversed(eps_values):
        while tops and tops[-1] >= eps * denom:
            d0 = least[tops.pop()]
            best = d0 if best is None or d0 < best else best
        delta = (Fraction(best, denom) if best is not None
                 else space.diam if n_pts > 1 else eps)
        out.append((eps, delta))
    return out[::-1]


def displacement_curve(sys: SystemMap, horizon: int | None = None) -> list[Fraction]:
    """max over points of d(T^n(x), x), for n = 0 .. horizon-1.  Only
    T^0 .. T^(pre+per-1) are stepped: T^(n+per) = T^n for n >= pre, so
    later entries repeat the periodic part."""
    _require_table(sys, "displacement")
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per + 1
    tables = iterate_tables(sys, min(bound, pre + per))
    space = sys.space
    d = space.dist_int
    n_pts = len(space.points)
    curve = [Fraction(max(d(tbl[i], i) for i in range(n_pts)), space.denom)
             for tbl in tables]
    return curve + [curve[pre + (n - pre) % per]
                    for n in range(len(curve), bound)]


def _rigidity_verdict(curve: Sequence[Fraction], eps: Fraction, bound: int,
                      note: str) -> Verdict:
    """Uniform rigidity up to bound, read off the first min(bound, pre +
    per + 1) entries of the displacement curve: the least n >= 1 with
    displacement below eps is the witness, and if it exists it is at most
    pre + per, since later entries repeat entries from pre on (n = per
    repeats n = 0 when pre = 0)."""
    n = next((n for n in range(1, len(curve)) if curve[n] < eps), None)
    return Verdict("holds" if n is not None else "fails", True, horizon=bound,
                   witnesses=(("witness_n", n),), note=note)


def is_uniformly_rigid(sys: SystemMap, eps, horizon: int | None = None) -> Verdict:
    """Some n >= 1 moves every point within eps of itself; the least such n
    is the ``witness_n`` (None when there is none, exact past the eventual
    period)."""
    _require_table(sys, "uniform rigidity")
    eps = _positive_eps(eps)
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per + 1
    curve = displacement_curve(sys, min(bound, pre + per + 1))
    return _rigidity_verdict(curve, eps, bound, f"eps={eps}")


def is_proximal_pair(sys: SystemMap, x: Point, y: Point,
                     horizon: int | None = None) -> Verdict:
    """Do the two orbits merge (liminf distance zero is merging on a
    finite space, since distinct points keep positive distance).  A failure
    is exact only when the scan reaches preperiod + period."""
    _require_table(sys, "proximality")
    return _proximal_pair(sys, sys.space.index(x), sys.space.index(y), horizon)


def _proximal_pair(sys: SystemMap, i: int, j: int,
                   horizon: int | None) -> Verdict:
    """``is_proximal_pair`` on point indices."""
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per
    space = sys.space
    x, y = space.points[i], space.points[j]
    best = None
    for n in range(bound + 1):
        if i == j:
            return Verdict("holds", True, horizon=bound, witnesses=((n,),))
        if n >= pre:
            dv = space.dist_int(i, j)
            best = dv if best is None or dv < best else best
        i, j = sys.table[i], sys.table[j]
    liminf = "None" if best is None else str(Fraction(best, space.denom))
    exact = bound >= pre + per
    return Verdict("fails", exact, horizon=bound,
                   counterexample=(point_label(x), point_label(y), liminf),
                   note="orbits never merge; liminf distance shown" if exact
                        else "orbits do not merge up to the horizon")


def is_proximal(sys: SystemMap) -> Verdict:
    """All pairs proximal.  Two orbits of a finite system merge iff
    T^preperiod sends them to one state, so this holds iff T^preperiod(X)
    is a single state; otherwise the counterexample is point 0 and the
    first point whose T^preperiod image differs from that of point 0."""
    _require_table(sys, "proximality")
    tbl = sys.preperiod_table()
    j = next((j for j, t in enumerate(tbl) if t != tbl[0]), None)
    if j is None:
        return Verdict("holds", True, note="all pairs merge")
    return Verdict("fails", True,
                   counterexample=_proximal_pair(sys, 0, j, None).counterexample,
                   note="non-proximal pair")


def diam_decay(sys: SystemMap, horizon: int | None = None) -> list[Fraction]:
    """diam(T^n(X)) for n = 0 .. horizon-1; nonincreasing since images nest.
    Only T^0 .. T^pre are stepped: from n = pre on, T^n(X) is the union of
    the cycles, so later entries repeat the last."""
    _require_table(sys, "diameter decay")
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per + 1
    space = sys.space
    d = space.dist_int
    current = frozenset(range(len(space.points)))
    out = []
    for _ in range(min(bound, pre + 1)):
        idx = sorted(current)
        out.append(Fraction(max((d(i, j) for i, j in
                                 itertools.combinations(idx, 2)), default=0),
                            space.denom))
        current = sys.image_indices(current)
    return out + out[-1:] * (bound - len(out))


def is_sensitive(sys: SystemMap, eps, basis=None,
                 horizon: int | None = None) -> Verdict:
    """For every point and every basis neighborhood of it, some neighbor
    escapes to distance > eps at some time below the horizon."""
    _require_table(sys, "sensitivity")
    eps = _positive_eps(eps)
    space = sys.space
    d = space.dist_int
    # a distance exceeds eps iff its scaled integer exceeds this
    floor = eps.numerator * space.denom // eps.denominator
    basis = _checked_basis(TableDyn(sys), basis)
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per
    tables = iterate_tables(sys, bound)
    for i, x in enumerate(space.points):
        for u in basis:
            members = _open_indices(space, u)
            if i not in members:
                continue
            escaped = False
            for j in members:
                if any(d(tbl[i], tbl[j]) > floor for tbl in tables):
                    escaped = True
                    break
            if not escaped:
                return Verdict("fails", True, horizon=bound,
                               counterexample=(point_label(x), u.label),
                               note="no neighbor ever escapes past eps")
    return Verdict("holds", True, horizon=bound)


def is_periodically_dense(sys: SystemMap, basis=None) -> Verdict:
    """Every basis open contains a periodic point."""
    _require_table(sys, "periodic density")
    space = sys.space
    basis = _checked_basis(TableDyn(sys), basis)
    periodic = _recurrent_indices(sys)
    for u in basis:
        if not (_open_indices(space, u) & periodic):
            return Verdict("fails", True, counterexample=(u.label,),
                           note="open without periodic points")
    return Verdict("holds", True)
