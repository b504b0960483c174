"""Return-time oracles and the opens they quantify over.

An oracle answers when T^n(U) meets V for opens U, V of one system: a
finite table (``TableDyn``), a shift of finite type (``ShiftDyn``), the
hyperspace of a shift (``HyperShiftDyn``) or a product of oracles with
exponents (``ProductDyn``).  Each owns its opens, its basis, its clock and
whether its basis is exhaustive (``_Oracle``).  The default bases are a
table's singleton balls (radius below the minimum positive distance), a
shift's legal cylinders up to a configured length, the Vietoris elements of
a bounded number of cylinder components over a shift, decided through base
return times, and the boxes of a product's factor bases.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import BoundExceeded, InputError
from .families import _extend
from .spaces import MetricSpace, Point, SystemMap, point_label
from .symbolic import ShiftSystem

DEFAULT_CYLINDER_LENGTH = 3
VIETORIS_COMPONENT_CAP = 2

#: most factors of a product oracle; its rows nest one iterator per factor
PRODUCT_FACTOR_CAP = 256


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

    def __repr__(self) -> str:
        return f"PointsOpen({self.label})"

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

    @property
    def label(self) -> str:
        return f"[{self.word}]"


@dataclass(frozen=True)
class ProductOpen:
    """A box: one open per factor of a product system."""
    parts: tuple

    @property
    def label(self) -> str:
        # B(x) x B(y) is B((x,y)) under the max metric
        if all(isinstance(p, _SingletonOpen) for p in self.parts):
            point = tuple(p.space.points[i] for p in self.parts
                          for i in p.indices)
            return f"B({point_label(point)})"
        return "(" + ",".join(p.label for p in self.parts) + ")"


@dataclass(frozen=True)
class VietorisOpen:
    """Hyperspace basis element built from base cylinders, at least one."""
    words: tuple

    def __post_init__(self):
        if not self.words:
            raise InputError("empty open rejected")

    @property
    def label(self) -> str:
        return "<" + ",".join(f"[{w}]" for w in self.words) + ">"


def points_open(space: MetricSpace, members: Iterable[Point],
                label: str | None = None) -> PointsOpen:
    indices = frozenset(space.index(p) for p in members)
    if not indices:
        raise InputError("empty open rejected")
    return PointsOpen(space, indices, label)


class _SingletonBasis(Sequence):
    """The singleton balls of a table space, one per point in point order;
    each open is built on first access and kept, so a basis of a lift's
    many states holds only the opens a check has read."""

    def __init__(self, space: MetricSpace):
        self.space = space
        self._opens: dict[int, PointsOpen] = {}

    def __len__(self) -> int:
        return len(self.space.points)

    def __getitem__(self, i: int) -> PointsOpen:
        i = range(len(self))[i]
        hit = self._opens.get(i)
        if hit is None:
            hit = self._opens[i] = _SingletonOpen(self.space, frozenset((i,)))
        return hit


def _covers(sizes: tuple, boxes: list) -> bool:
    """Do the boxes, each a tuple of index sets, one per factor, cover the
    product of the ranges of the sizes?  The points of the first factor
    that lie in the same boxes pose the same question for the rest."""
    if not sizes:
        return bool(boxes)
    owners = [[] for _ in range(sizes[0])]
    for k, box in enumerate(boxes):
        for i in box[0]:
            owners[i].append(k)
    return all(_covers(sizes[1:], [boxes[k][1:] for k in ks])
               for ks in set(map(tuple, owners)))


# -- dynamics oracles -------------------------------------------------------

class _Oracle:
    """All that the checkers read of an oracle.  ``as_open(x)`` is x as an
    open of the oracle's kind, or raises ``InputError``.
    ``checked_basis(basis)`` is the default basis for None, else the
    caller's opens through ``as_open``, which must cover the space of a
    finite oracle; no basis may be empty, as a scan over none holds
    vacuously.  ``preperiod_period()`` is the clock (pre, per): every
    N(U, V) of the oracle's opens is periodic with period per from pre on,
    so a scan below pre + per exhausts the times.  ``exact_basis`` says
    whether the default basis exhausts the opens as well: true on a table,
    whose singletons are open, false on a shift, whose bounded cylinders
    are no basis of its topology.  ``return_times(u, v)`` is N(U, V)
    below the clock's pre + per as one bitset, bit n set iff T^n(U) meets
    V; the clock extends it to any bound (``families._extend``).  Scans
    read ``rows(basis)``, one row per basis open U in basis order, yielding
    N(U, V) for every V of the basis in basis order, on demand."""

    def as_open(self, x):
        raise InputError(f"cannot interpret {x!r} as an open set")

    def checked_basis(self, basis) -> Sequence:
        if basis is None:
            basis, sizes = self.default_basis(), None
        else:
            basis, sizes = tuple(map(self.as_open, basis)), self._sizes()
        if not _count(basis):
            raise InputError("empty basis")
        if sizes and not _covers(sizes, list(map(self._parts, basis))):
            raise InputError("basis does not cover the space")
        return basis

    def _sizes(self) -> tuple | None:
        """Each table's point count on a finite oracle, for ``_parts``."""
        return None

    def rows(self, basis):
        return (map(self.return_times, itertools.repeat(u), basis)
                for u in basis)


class TableDyn(_Oracle):
    """Return-time oracle for a finite table system; exact via the eventual
    period of the map table."""

    exact_basis = True

    def __init__(self, sys: SystemMap):
        self.sys = sys

    def default_basis(self) -> Sequence[PointsOpen]:
        return _SingletonBasis(self.sys.space)

    def as_open(self, x) -> PointsOpen:
        """A ``PointsOpen``, or a collection of points such as a
        ``CompactSet``, as a nonempty open of this space."""
        if isinstance(x, PointsOpen):
            if x.space is self.sys.space and x.indices:
                return x
            return points_open(self.sys.space, x.members, x._label)
        if not isinstance(x, Iterable):
            return super().as_open(x)
        return points_open(self.sys.space, x)

    def preperiod_period(self) -> tuple[int, int]:
        return self.sys.eventual_period()

    def _sizes(self) -> tuple[int]:
        return (len(self.sys.space.points),)

    def _parts(self, u: PointsOpen) -> tuple:
        return (u.indices,)

    def return_times(self, u: PointsOpen, v: PointsOpen) -> int:
        return next(self._row(u.indices, (v.indices,)))

    def rows(self, basis):
        if (isinstance(basis, _SingletonBasis)
                and basis.space is self.sys.space):
            n = len(basis)                  # point i is the set (i,)
            return (self._row((i,), zip(range(n))) for i in range(n))
        sets = tuple(u.indices for u in basis)
        return (self._row(u, sets) for u in sets)

    def _row(self, u, sets):
        """One walk of the orbit of the point set u up to pre + per records,
        per point, the times n at which it lies in T^n(u); each target set
        collects its points' times (T^n(u) meets it iff some point of it
        lies in T^n(u))."""
        tbl = self.sys.table
        times: dict[int, int] = {}
        cur = u
        for n in range(sum(self.sys.eventual_period())):
            bit = 1 << n
            for i in cur:
                times[i] = times.get(i, 0) | bit
            # the image of one point is one index
            cur = (tbl[i],) if len(cur) == 1 else {tbl[i] for i in cur}
        for v in sets:
            bits = 0
            for j in v:
                bits |= times.get(j, 0)
            yield bits


class _ShiftOracle(_Oracle):
    """An oracle over the cylinders of a shift (``ShiftSystem.check_word``),
    on the shift's clock (``ShiftSystem.clock``)."""

    exact_basis = False

    def __init__(self, shift: ShiftSystem,
                 cylinder_length: int = DEFAULT_CYLINDER_LENGTH):
        self.shift = shift
        self.cylinder_length = min(cylinder_length, shift.resolution)

    def preperiod_period(self) -> tuple[int, int]:
        return self.shift.clock()


class ShiftDyn(_ShiftOracle):
    """Return-time oracle for cylinders of a shift of finite type.  It holds
    no cache: every oracle over one shift reads its one word-pair memo
    (``ShiftSystem.return_bits``)."""

    def default_basis(self) -> tuple[CylinderOpen, ...]:
        return tuple(CylinderOpen(w)
                     for w in self.shift.cylinders(self.cylinder_length))

    def as_open(self, x) -> CylinderOpen:
        """A ``CylinderOpen``, or a word as its cylinder."""
        x = CylinderOpen(x) if isinstance(x, str) else x
        if not isinstance(x, CylinderOpen):
            return super().as_open(x)
        self.shift.check_word(x.word)
        return x

    def return_times(self, u: CylinderOpen, v: CylinderOpen) -> int:
        return self.shift.return_bits(u.word, v.word)


def _widen(bits: int, clock: tuple, a: int, bound: int) -> int:
    """The bitset whose bit n < bound is bit a * n of the set on ``clock``
    whose bits below its pre + per are ``bits``: the set is extended
    periodically, and then, when a > 1, every a-th bit is kept."""
    if a == 1:
        return bits if sum(clock) == bound else _extend(bits, *clock, bound)
    digits = format(_extend(bits, *clock, a * bound), "b")[::-1]  # bit 0 first
    return int(digits[::a][::-1] or "0", 2)


class _BoxBasis(Sequence):
    """The boxes of the factor bases in product order, each built only when
    it is read by index; scans read rows by index and build none.  There
    may be more boxes than ``len()`` can return (at most ``sys.maxsize``),
    so ``size`` counts them."""

    __slots__ = ("bases", "size")

    def __init__(self, bases: tuple):
        self.bases = bases
        self.size = math.prod(map(_count, bases))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> ProductOpen:
        if not -self.size <= i < self.size:
            raise IndexError("box index out of range")
        i %= self.size
        parts = []
        for basis in reversed(self.bases):
            i, r = divmod(i, _count(basis))
            parts.append(basis[r])
        return ProductOpen(tuple(reversed(parts)))


def _count(basis) -> int:
    """The number of opens of a basis, box bases past ``len()`` included."""
    return basis.size if isinstance(basis, _BoxBasis) else len(basis)


class _LazyRow:
    """A factor row, or a factor's rows, whose items are computed on first
    iteration and kept; a later iteration reads the kept ones, then resumes
    the source, and once the source is exhausted it reads the kept list
    alone."""

    def __init__(self, source):
        self._source = source
        self._done: list[int] = []

    def __iter__(self):
        if self._source is None:
            return iter(self._done)
        return self._resume()

    def _resume(self):
        yield from self._done
        for bits in self._source:
            self._done.append(bits)
            yield bits
        self._source = None


def _box_row(rows: list, acc: int = -1):
    """The AND of one bitset from each (widened) factor row, in product
    order."""
    heads = map(acc.__and__, rows[0])
    if len(rows) == 1:
        return heads
    return itertools.chain.from_iterable(
        map(_box_row, itertools.repeat(rows[1:]), heads))


def _tuples(first, *rest):
    """Each choice of one item per iterable, in product order, read on
    demand: each iterable after the first is read once per item before it,
    so it must be one that can be read again, such as a ``_LazyRow``."""
    for item in first:
        for tail in _tuples(*rest) if rest else [()]:
            yield (item, *tail)


class ProductDyn(_Oracle):
    """Product of oracles with per-factor exponents; membership is decided
    coordinatewise: n is a return time iff a_i * n is one for each factor,
    so a box's row is the AND of its factors' dilated rows (Furstenberg
    1967), each read at its factor's clock and widened to the product's
    (``_widen``).  Over a box basis each factor row comes from one scan of
    the factor and is kept only for this scan; any other basis is read
    pairwise."""

    def __init__(self, factors: Sequence[tuple[object, int]]):
        if not factors:
            raise InputError("empty factor list rejected")
        if len(factors) > PRODUCT_FACTOR_CAP:
            raise BoundExceeded("product factors", len(factors),
                                PRODUCT_FACTOR_CAP)
        for _, e in factors:
            if e < 1:
                raise InputError("exponents must be positive")
        self.factors = tuple(factors)

    def default_basis(self) -> _BoxBasis:
        return _BoxBasis(tuple(dyn.default_basis() for dyn, _ in self.factors))

    def as_open(self, x) -> ProductOpen:
        """A ``ProductOpen`` with one part per factor, each part checked by
        its factor."""
        if not isinstance(x, ProductOpen):
            return super().as_open(x)
        if len(x.parts) != len(self.factors):
            raise InputError("a box needs one part per factor")
        return ProductOpen(tuple(dyn.as_open(p) for (dyn, _), p
                                 in zip(self.factors, x.parts)))

    def checked_basis(self, basis) -> Sequence:
        """A box basis is checked factor by factor and stays lazy."""
        if not isinstance(basis, _BoxBasis):
            return super().checked_basis(basis)
        if len(basis.bases) != len(self.factors):
            raise InputError("a box needs one part per factor")
        return _BoxBasis(tuple(dyn.checked_basis(b) for (dyn, _), b
                               in zip(self.factors, basis.bases)))

    @property
    def exact_basis(self) -> bool:
        return all(dyn.exact_basis for dyn, _ in self.factors)

    def preperiod_period(self) -> tuple[int, int]:
        return self._clocks()[1]

    def _clocks(self) -> tuple[list, tuple[int, int]]:
        """The factors' clocks, and the product's (README)."""
        clocks = [dyn.preperiod_period() for dyn, _ in self.factors]
        pre_star, per_star = 0, 1
        for (pre, per), (_, a) in zip(clocks, self.factors):
            pre_i = -(-pre // a)
            per_i = per // math.gcd(per, a)
            pre_star = max(pre_star, pre_i)
            per_star = per_star * per_i // math.gcd(per_star, per_i)
        return clocks, (pre_star, per_star)

    def _sizes(self) -> tuple | None:
        sizes = [dyn._sizes() for dyn, _ in self.factors]
        return None if None in sizes else sum(sizes, ())

    def _parts(self, u: ProductOpen) -> tuple:
        return sum((dyn._parts(p) for (dyn, _), p
                    in zip(self.factors, u.parts)), ())

    def _wideners(self) -> list:
        """Per factor, the map from its sets at its own clock to their sets
        at the product's (``_widen``), or None where they are the same."""
        clocks, clock = self._clocks()
        return [None if a == 1 and own == clock else
                functools.partial(_widen, clock=own, a=a, bound=sum(clock))
                for (_, a), own in zip(self.factors, clocks)]

    def _factor_rows(self, dyn, basis, widen):
        rows = dyn.rows(basis)
        return rows if widen is None else (map(widen, row) for row in rows)

    def return_times(self, u: ProductOpen, v: ProductOpen) -> int:
        clocks, clock = self._clocks()
        bits = -1
        for (dyn, a), own, up, vp in zip(self.factors, clocks, u.parts,
                                         v.parts):
            bits &= _widen(dyn.return_times(up, vp), own, a, sum(clock))
        return bits

    def rows(self, basis):
        """Over a box basis, each box row is the ANDs of one factor row per
        factor, in box order: a later factor's rows are pulled on first use
        and kept for the scan; a row of the first factor serves consecutive
        boxes only."""
        if not isinstance(basis, _BoxBasis):
            return super().rows(basis)
        first, *rest = (map(_LazyRow, self._factor_rows(dyn, b, widen))
                        for (dyn, _), b, widen in zip(
                            self.factors, basis.bases, self._wideners()))
        return map(_box_row, _tuples(first, *map(_LazyRow, rest)))

    def box_values(self, basis: _BoxBasis, most: int):
        """The set of the sets of all box pairs, or None once it would take
        more than ``most`` ANDs.  Box pairs are the tuples of factor pairs,
        so these sets are the ANDs of one distinct (widened) set of each
        factor over all pairs of its basis; a factor's sets are deduplicated
        at its own clock, then widened, and the ANDs are deduplicated after
        each factor, whose rows are read only when it is reached."""
        sets = {-1}
        for (dyn, _), b, widen in zip(self.factors, basis.bases,
                                      self._wideners()):
            values = set(itertools.chain.from_iterable(dyn.rows(b)))
            if widen is not None:
                values = set(map(widen, values))
            if len(sets) * len(values) > most:
                return None
            sets = {s & v for s in sets for v in values}
        return sets


class HyperShiftDyn(_ShiftOracle):
    """Hyperspace return times over a shift, on Vietoris elements whose
    components are base cylinders.

    For any system, T_K^n<U_1..U_p> meets <V_1..V_q> iff every U_i sends a
    point into some V_j at time n and every V_j receives one from some U_i;
    a finite set realizing the matching witnesses membership.  This reduces
    hyperspace membership to base membership exactly, read from the
    shift's word-pair memo (``ShiftSystem.return_bits``).
    """

    def __init__(self, shift: ShiftSystem,
                 cylinder_length: int = DEFAULT_CYLINDER_LENGTH,
                 max_components: int = VIETORIS_COMPONENT_CAP):
        super().__init__(shift, cylinder_length)
        self.max_components = max_components

    def default_basis(self) -> tuple[VietorisOpen, ...]:
        cyls = self.shift.cylinders(self.cylinder_length)
        return tuple(VietorisOpen(combo)
                     for r in range(1, self.max_components + 1)
                     for combo in itertools.combinations(cyls, r))

    def as_open(self, x) -> VietorisOpen:
        if not isinstance(x, VietorisOpen):
            return super().as_open(x)
        for word in x.words:
            self.shift.check_word(word)
        return x

    def return_times(self, u: VietorisOpen, v: VietorisOpen) -> int:
        times = [[self.shift.return_bits(a, b) for b in v.words]
                 for a in u.words]
        # each U_i sends into some V_j; each V_j receives from some U_i
        return functools.reduce(operator.and_, (
            functools.reduce(operator.or_, bits)
            for bits in (*times, *zip(*times))))

    def rows(self, basis):
        """One lazy row per source U, the Vietoris fold (README)."""
        # each open's distinct words, as <V, V> = <V>; per run of targets
        # of as many words, column k holds the index of each target's k-th
        # word among the basis's words
        opens = [tuple(dict.fromkeys(v.words)) for v in basis]
        words = {}
        runs = [[[words.setdefault(w, len(words)) for w in col]
                 for col in zip(*run)]
                for _, run in itertools.groupby(opens, len)]
        word_rows = {}      # source word -> its base row over the words
        for u in opens:
            for w in u:
                if w not in word_rows:
                    word_rows[w] = [self.shift.return_bits(w, x)
                                    for x in words]
            rows = [word_rows[w] for w in u]
            yield itertools.chain.from_iterable(map(functools.partial(
                _vietoris_run, list(_fold(operator.or_, rows)), rows), runs))


def _vietoris_run(ors, rows, cols):
    """A source's sets over one run of targets, from the base rows of its
    words and their OR: each V_k receives from some U_i, and each U_i sends
    into some V_k."""
    return _fold(operator.and_, [
        *(map(ors.__getitem__, c) for c in cols),
        *(_fold(operator.or_, [map(r.__getitem__, c) for c in cols])
          for r in rows)])


#: the deepest chain of lazy maps a fold builds before it reads one into a
#: list; a chain of 100,000 maps overflows the C stack when read
_FOLD_DEPTH = 64


def _fold(op, its):
    """The elementwise op of the iterables, read lazily unless there are
    more than ``_FOLD_DEPTH`` of them."""
    acc, *its = its
    for k, it in enumerate(its, 1):
        acc = map(op, acc, it)
        if k % _FOLD_DEPTH == 0:
            acc = list(acc)
    return acc


def as_dyn(target):
    if isinstance(target, SystemMap):
        return TableDyn(target)
    if isinstance(target, ShiftSystem):
        return ShiftDyn(target)
    if isinstance(target, _Oracle):
        return target
    raise InputError(f"not a dynamical system: {target!r}")
