"""The space of nonempty subsets under the Hausdorff metric and its
induced set-valued dynamics.

The empty set is representable in :class:`CompactSet` so the extended metric
d(empty, A) = diam(X) is available where fuzzy level cuts need it, but the
empty set is never a state of the lifted system.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from sys import maxsize
from typing import Callable, Iterable, Sequence

from .errors import BoundExceeded, InputError
from .spaces import (LiftTable, MetricSpace, Point, SystemMap, ZERO,
                     _check_states, _RenderedPoints, _scaled_matrix,
                     point_label)

#: most base points whose 4^n mask pairs a scan tabulates
MASK_PAIR_MAX_POINTS = 8


class CompactSet:
    """Subset of a finite space; possibly empty, closed automatically."""

    __slots__ = ("space", "members")

    def __init__(self, space: MetricSpace, members: Iterable[Point]):
        mem = frozenset(members)
        for p in mem:
            if p not in space:
                raise InputError(f"point not in space: {point_label(p)}")
        self.space = space
        self.members = mem

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_points())

    def sorted_points(self) -> list[Point]:
        idx = self.space.index
        return sorted(self.members, key=idx)

    def __contains__(self, p) -> bool:
        return p in self.members

    def __eq__(self, other) -> bool:
        return (isinstance(other, CompactSet) and other.space is self.space
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.space), self.members))

    def __repr__(self) -> str:
        inner = ",".join(point_label(p) for p in self.sorted_points())
        return "{" + inner + "}"


def hausdorff_distance(a: CompactSet, b: CompactSet) -> Fraction:
    """max of the two directed sup-inf distances, read from the space's
    integer metric, with the extension d(empty, empty) = 0 and
    d(empty, A) = diam(X) for nonempty A.
    """
    if a.space is not b.space:
        raise InputError("Hausdorff distance needs a common base space")
    if a.is_empty and b.is_empty:
        return ZERO
    if a.is_empty or b.is_empty:
        return a.space.diam
    space = a.space
    d = space.dist_int
    ia = [space.index(p) for p in a.members]
    ib = [space.index(p) for p in b.members]

    def directed(src, dst):
        return max(min(d(x, y) for y in dst) for x in src)

    return Fraction(max(directed(ia, ib), directed(ib, ia)), space.denom)


def _subset_points(space: MetricSpace) -> _RenderedPoints:
    """The 2^n - 1 nonempty subsets of the points, in bitmask order: the
    states of the subset lift, kept as bitmasks and rendered when read.
    They are indexable up to ``_INDEX_MAX_POINTS`` = 63 points."""
    n = len(space.points)
    if n > _INDEX_MAX_POINTS:
        raise BoundExceeded("hyperspace lift", n, _INDEX_MAX_POINTS)
    pts = space.points

    def encode(subset: frozenset) -> int:
        if not isinstance(subset, frozenset):
            raise ValueError("a subset state is a frozenset")
        return sum(1 << space.index(p) for p in subset)

    return _RenderedPoints(range(1, 1 << n), lambda mask: frozenset(
        pts[i] for i in range(n) if mask >> i & 1), encode)


def enumerate_compacts(space: MetricSpace):
    """All 2^n - 1 nonempty subsets, each exactly once, in bitmask order."""
    _check_states("hyperspace lift", 1 << len(space.points))
    for members in _subset_points(space):
        yield CompactSet(space, members)


def _min_to_mask_table(n: int, mat: list[list[int]]) -> list[list[int] | None]:
    """mind[mask][a] = min over b in mask of d(a, b), for every nonempty mask."""
    full = 1 << n
    mind: list[list[int] | None] = [None] * full
    for mask in range(1, full):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        col = mat[i]
        if rest:
            prev = mind[rest]
            mind[mask] = [c if c < p else p for c, p in zip(col, prev)]
        else:
            mind[mask] = list(col)
    return mind


class _MinRows:
    """The rows of the min-to-mask table, each computed when it is read:
    row ``mask`` is, per point a, the min over b in the mask of d(b, a)."""

    __slots__ = ("mat",)

    def __init__(self, mat: list[list[int]]):
        self.mat = mat

    def __getitem__(self, mask: int) -> list[int]:
        rows = [self.mat[i] for i in range(mask.bit_length()) if mask >> i & 1]
        return list(map(min, zip(*rows)))


def _mask_hausdorff(a_mask: int, b_mask: int, mind) -> int:
    best = 0
    m = a_mask
    row = mind[b_mask]
    while m:
        low = m & -m
        i = low.bit_length() - 1
        v = row[i]
        if v > best:
            best = v
        m ^= low
    m = b_mask
    row = mind[a_mask]
    while m:
        low = m & -m
        i = low.bit_length() - 1
        v = row[i]
        if v > best:
            best = v
        m ^= low
    return best


def _mask_pair_table(n: int, mind, empty: int) -> list[int]:
    """h[a << n | b] = _mask_hausdorff(a, b, mind) for every pair of masks,
    where an empty mask is ``empty`` away from a nonempty one."""
    full = 1 << n
    # directed[a][b] = max over x in a of mind[b][x], one bit of a at a time
    directed = [[0] * full]
    for a in range(1, full):
        low = a & -a
        x = low.bit_length() - 1
        col = [0] + [mind[b][x] for b in range(1, full)]
        prev = directed[a ^ low]
        directed.append([c if c > p else p for c, p in zip(col, prev)])
    h = []
    for row, col in zip(directed, zip(*directed)):
        h += [r if r > c else c for r, c in zip(row, col)]
    # the empty mask: row 0 and column 0, apart from h[0] = 0
    h[1:full] = h[full::full] = [empty] * (full - 1)
    return h


def _mask_image(mask: int, point_bit: list[int]) -> int:
    """Bitmask of the image of the subset with bitmask ``mask``, where
    ``point_bit[i]`` is the bit of the image of point i."""
    img = 0
    while mask:
        low = mask & -mask
        img |= point_bit[low.bit_length() - 1]
        mask ^= low
    return img


def _levelwise(read: Callable[[int], Sequence[int]], mind,
               diam: int) -> Callable[[int, int], int]:
    """(i, j) -> the levelwise distance of states i and j, whose cut masks
    are ``read(i)`` and ``read(j)``, with the min-to-mask rows ``mind``."""
    def dist(i: int, j: int) -> int:
        worst = 0
        for a_mask, b_mask in zip(read(i), read(j)):
            if a_mask and b_mask:
                v = _mask_hausdorff(a_mask, b_mask, mind)
            elif a_mask or b_mask:
                v = diam
            else:
                continue
            if v > worst:
                worst = v
        return worst
    return dist


def _cut_lift(points: _RenderedPoints, table: LiftTable,
              masks: Callable[[int], Sequence[int]],
              columns: Callable[[], Sequence[Sequence[int]]],
              label: str, provenance: dict) -> SystemMap:
    """The lift of ``table.base`` onto ``points``, rendered from the codes
    of the table, where the state of code c has the cut bitmasks
    ``masks(c)``, one per level, and steps by ``table``; ``columns()`` is
    the list of the cut columns over every code of the kernel, one per
    level, each indexed by code.

    A lift takes the base's eventual period, so its table is never walked
    for it.  It steps every state by images of preimage sets, T_F^n(u)(x) =
    max{u(y) : T^n(y) = x}, and holds a point mass lambda * 1_y at every
    base point y: equal powers of T give equal preimage sets, and
    T_F^n(lambda * 1_y) is lambda * 1_(T^n(y)), so T_F^(p+q) = T_F^p
    exactly when T^(p+q) = T^p.

    The metric is the levelwise distance, evaluated on demand from the cut
    masks as an integer over the base denominator: the max over levels of
    the mask Hausdorff distance, where a cut empty on one side only counts
    the diameter.  On a base of two or more points, two distinct states are
    at least the base gap apart, and two states whose cuts are two
    singletons at the gap realize it.  ``dist_int`` reads the cut masks of
    the codes of its two states and the rows of the min-to-mask table that
    it needs (``_MinRows``), and keeps nothing.  A scan checks the state
    cap, reads every state's masks from the columns and builds the whole
    min-to-mask table, and its reader holds them until the caller drops
    it: over more than ``MASK_PAIR_MAX_POINTS`` base points it reads both,
    and over fewer it reads every pair of masks from the pair table.
    """
    sys, codes = table.base, table.codes
    base = sys.space
    n = len(base.points)
    denom, mat = _scaled_matrix(base)
    diam = int(base.diam * denom)

    def scan() -> Callable[[int, int], int]:
        _check_states(table.name, table.count)
        every = list(zip(*(map(col.__getitem__, codes) for col in columns())))
        mind = _min_to_mask_table(n, mat)
        if n > MASK_PAIR_MAX_POINTS:
            return _levelwise(every.__getitem__, mind, diam)
        h = _mask_pair_table(n, mind, diam)
        rows = [[a << n for a in c] for c in every]
        return lambda i, j: max(map(h.__getitem__,
                                    map(operator.or_, rows[i], every[j])))

    space = MetricSpace(points,
                        fn=_levelwise(lambda i: masks(codes[i]),
                                      _MinRows(mat), diam),
                        denom=denom, diam=base.diam,
                        gap=base.gap if n > 1 else None, scan=scan,
                        label=label)
    prov = {**provenance,
            "base": sys.provenance if sys.provenance else {"kind": "finite"}}
    return SystemMap(space, table, label=label, provenance=prov,
                     period=sys.eventual_period())


#: the most base points of a subset lift whose states a sequence can index:
#: 2^n - 1 states at most ``sys.maxsize``
_INDEX_MAX_POINTS = maxsize.bit_length()


def _subset_steps(base: SystemMap, masks: Sequence[int] | None) -> list[int]:
    """The image masks of a batch of subset masks under ``base``, or of
    every mask below 2^n (``masks`` None)."""
    point_bit = [1 << t for t in base.table]
    if masks is None:
        masks = range(1 << len(point_bit))
    return [_mask_image(mask, point_bit) for mask in masks]


def lift_system(sys: SystemMap) -> SystemMap:
    """The induced system on all nonempty subsets, as a bona fide SystemMap:
    the one-level case of the levelwise lift, whose metric is the Hausdorff
    metric.  State i is the subset with bitmask i + 1, and steps to the
    image mask of the subset kernel.  The state cap is on the 2^n masks the
    kernel steps, and is checked when the whole table is built or a scan
    reads every state's mask.  The singletons are the point masses, so the
    lift takes the base's eventual period.
    """
    subsets = _subset_points(sys.space)
    n = len(sys.space.points)
    table = LiftTable(sys, subsets.codes, _subset_steps, "hyperspace lift",
                      1 << n, 1)
    return _cut_lift(subsets, table, lambda mask: (mask,),
                     lambda: [range(1 << n)], f"K({sys.label})",
                     {"kind": "hyperspace_lift"})
