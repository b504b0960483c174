"""Finite metric spaces with exact rational distances, and table dynamics on them.

Every distance is a :class:`fractions.Fraction`; no floats appear anywhere.
Spaces either carry a dense symmetric distance table or (for large derived
spaces such as hyperspace and fuzzy lifts) a distance function evaluated on
demand, never cached.  All values are immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import BoundExceeded, InputError

Point = Any

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: cap on materialized product systems (total states)
PRODUCT_STATE_CAP = 262144


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not an exact rational: {value!r}") from exc
    raise InputError(f"not an exact rational: {value!r}")


def point_label(p) -> str:
    """Readable, deterministic rendering of a point id."""
    if isinstance(p, frozenset):
        return "{" + ",".join(sorted(point_label(q) for q in p)) + "}"
    if isinstance(p, tuple):
        return "(" + ",".join(point_label(q) for q in p) + ")"
    return str(p)


class _RenderedPoints(Sequence):
    """A read-only point sequence that keeps one integer code per point and
    renders the point id from its code only when the point is read."""

    __slots__ = ("codes", "render")

    def __init__(self, codes: Sequence[int], render: Callable[[int], Point]):
        self.codes = codes
        self.render = render

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.render, self.codes[i]))
        return self.render(self.codes[i])


class MetricSpace:
    """Ordered point set with an exact rational metric.

    Every space answers ``dist_int(i, j)``: the distance of points i and j
    as an integer over the common denominator ``denom``.  Either ``matrix``
    (dense table, list of rows) or ``fn`` plus ``denom`` and an explicit
    ``diam`` must be supplied.  A table space scales its table once, over
    the lcm of the denominators of every entry, so asymmetric tables scale
    exactly too; a table of integers comes with its ``denom``, already
    scaled.  A lazy metric ``fn(i, j)`` is called with an index pair,
    returns the scaled integer and keeps nothing per pair.  ``d_by_index``
    renders one distance as a Fraction, for witnesses and serialization.
    ``points`` is copied to a tuple, except a ``_RenderedPoints`` sequence,
    which a lift passes so that a point id is rendered only when read.

    ``gap`` is the least scaled distance between two distinct points when
    the space knows it, else None: a table space with a symmetric table and
    zero diagonal knows it, and a lift or product is told it by its
    constructor.  ``scan``, when given, makes the reader that
    ``scan_metric`` returns.  The point-to-index map is built on first use;
    table spaces build it at once, which rejects duplicate point ids on
    ingest.
    """

    __slots__ = ("points", "label", "dist_int", "denom", "gap", "_scan",
                 "_index", "_matrix", "_diam", "_minpos", "_values")

    def __init__(self, points: Sequence[Point], *, matrix=None,
                 fn: Callable[[int, int], int] | None = None,
                 denom: int | None = None, diam: Fraction | None = None,
                 gap: int | None = None,
                 scan: Callable[[], Callable[[int, int], int]] | None = None,
                 label: str = "space"):
        pts = points if isinstance(points, _RenderedPoints) else tuple(points)
        if not pts:
            raise InputError("a metric space needs at least one point")
        self.points = pts
        self.label = label
        self._scan = scan
        self._index = None
        self._values = None
        if matrix is not None:
            self._point_index()
            n = len(pts)
            if len(matrix) != n or any(len(r) != n for r in matrix):
                raise InputError("distance table shape does not match points")
            if denom is None:
                rows = [[as_fraction(v) for v in row] for row in matrix]
                denom = math.lcm(*(v.denominator for r in rows for v in r))
                matrix = [[int(v * denom) for v in r] for r in rows]
            self._matrix = ints = matrix
            self.denom = denom
            self.dist_int = lambda i, j: ints[i][j]
            flat = [ints[i][j] for i in range(n) for j in range(i + 1, n)]
            metric = all(ints[i][i] == 0 and
                         all(ints[i][j] == ints[j][i] for j in range(i))
                         for i in range(n))
            self.gap = min(flat) if flat and metric else None
            self._diam = Fraction(max(flat, default=0), self.denom)
            pos = min((v for v in flat if v > 0), default=None)
            self._minpos = None if pos is None else Fraction(pos, denom)
        elif fn is not None:
            if diam is None or denom is None:
                raise InputError("lazy metric needs an explicit diameter "
                                 "and denominator")
            self._matrix = None
            self.dist_int = fn
            self.denom = denom
            self.gap = gap
            self._diam = as_fraction(diam)
            self._minpos = None
        else:
            raise InputError("need a distance table or a distance function")

    def _point_index(self) -> dict:
        if self._index is None:
            index = {p: i for i, p in enumerate(self.points)}
            if len(index) != len(self.points):
                raise InputError("duplicate point ids")
            self._index = index
        return self._index

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"MetricSpace({self.label!r}, {len(self.points)} points)"

    @property
    def diam(self) -> Fraction:
        return self._diam

    @property
    def nontrivial(self) -> bool:
        """At least two points (positive diameter on honest metrics)."""
        return len(self.points) >= 2

    def __contains__(self, p) -> bool:
        return p in self._point_index()

    def index(self, p: Point) -> int:
        try:
            return self._point_index()[p]
        except KeyError:
            raise InputError(f"point not in space: {point_label(p)}") from None

    def d(self, p: Point, q: Point) -> Fraction:
        return self.d_by_index(self.index(p), self.index(q))

    def d_by_index(self, i: int, j: int) -> Fraction:
        return Fraction(self.dist_int(i, j), self.denom)

    def scan_metric(self) -> Callable[[int, int], int]:
        """``dist_int`` for a scan that reads most pairs.  A lift tabulates
        every pair of cut masks (4^n ints, for small bases) into a reader
        that the caller drops with its scan; other spaces give ``dist_int``."""
        return self.dist_int if self._scan is None else self._scan()

    def min_positive_distance(self) -> Fraction | None:
        if self._matrix is None:
            raise InputError("min distance unavailable on a lazy metric space")
        return self._minpos

    def distance_values(self) -> tuple[Fraction, ...]:
        """Sorted distinct distance values, including 0 (table spaces only)."""
        if self._matrix is None:
            raise InputError("distance values unavailable on a lazy metric space")
        if self._values is None:
            vals = {0}
            n = len(self.points)
            for i in range(n):
                vals.update(self._matrix[i][i + 1:])
            self._values = tuple(Fraction(v, self.denom)
                                 for v in sorted(vals))
        return self._values

    def ball(self, center: Point, radius: Fraction) -> frozenset:
        """Open ball {q : d(center, q) < radius}."""
        r = as_fraction(radius)
        i = self.index(center)
        return frozenset(q for j, q in enumerate(self.points)
                         if self.d_by_index(i, j) < r)


def _scaled_matrix(space: MetricSpace) -> tuple[int, list[list[int]]]:
    """Every distance as an integer over the space's common denominator."""
    n = len(space.points)
    d = space.dist_int
    return space.denom, [[d(i, j) for j in range(n)] for i in range(n)]


def validate_metric(space: MetricSpace, point_bound: int = 512) -> list[str]:
    """Check all metric axioms exhaustively; return the list of violations.

    Validation never aborts on a bad metric; each violation names the
    offending pair or triple.  Works on lazy spaces too (distances are
    evaluated on demand), guarded by ``point_bound``.  Distances are
    compared as scaled integers; a pair (i, k) is scanned for a triangle
    violator j only when the least d(i, j) + d(j, k) over all j is below
    d(i, k).
    """
    n = len(space.points)
    if n > point_bound:
        raise BoundExceeded("metric validation", n, point_bound)
    out: list[str] = []
    lab = [point_label(p) for p in space.points]
    d = space.d_by_index
    _, mat = _scaled_matrix(space)
    cols = list(zip(*mat))
    for i in range(n):
        if mat[i][i] != 0:
            out.append(f"d({lab[i]},{lab[i]}) = {d(i, i)} != 0")
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                out.append(f"asymmetry at ({lab[i]},{lab[j]})")
            if mat[i][j] <= 0:
                out.append(f"d({lab[i]},{lab[j]}) = {d(i, j)} not positive")
    for i, row in enumerate(mat):
        for k in range(i + 1, n):
            if min(map(operator.add, row, cols[k])) >= row[k]:
                continue
            for j in range(n):
                if j != i and j != k and row[k] > row[j] + mat[j][k]:
                    out.append(
                        f"triangle violation: d({lab[i]},{lab[k]}) > "
                        f"d({lab[i]},{lab[j]}) + d({lab[j]},{lab[k]})")
    return out


class SystemMap:
    """Total endomap of a MetricSpace, stored as an index table."""

    __slots__ = ("space", "table", "label", "provenance", "_ep", "_settled",
                 "_pre")

    def __init__(self, space: MetricSpace, table: Sequence[int],
                 label: str = "system", provenance: dict | None = None):
        tbl = tuple(table)
        n = len(space.points)
        if len(tbl) != n:
            raise InputError("map table length does not match the space")
        if (not all(issubclass(t, int) for t in set(map(type, tbl)))
                or min(tbl) < 0 or max(tbl) >= n):
            raise InputError("map table entry out of range")
        self.space = space
        self.table = tbl
        self.label = label
        self.provenance = provenance
        self._ep = None
        self._settled = None
        self._pre = None

    def __repr__(self) -> str:
        return f"SystemMap({self.label!r}, {len(self.space)} points)"

    @property
    def surjective(self) -> bool:
        return len(set(self.table)) == len(self.space.points)

    def apply(self, p: Point) -> Point:
        return self.space.points[self.table[self.space.index(p)]]

    def image_indices(self, idxs: Iterable[int]) -> frozenset:
        return frozenset(self.table[i] for i in idxs)

    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """Preimage index lists, one per point."""
        if self._pre is None:
            buckets: list[list[int]] = [[] for _ in self.space.points]
            for src, dst in enumerate(self.table):
                buckets[dst].append(src)
            self._pre = tuple(tuple(b) for b in buckets)
        return self._pre

    def orbit_points(self, p: Point, steps: int) -> list[Point]:
        """[p, T(p), ..., T^steps(p)]."""
        i = self.space.index(p)
        out = [self.space.points[i]]
        for _ in range(steps):
            i = self.table[i]
            out.append(self.space.points[i])
        return out

    def eventual_period(self) -> tuple[int, int]:
        """Smallest (preperiod, period) with T^(p+q) = T^p as tables."""
        if self._ep is None:
            pre, per, self._settled = _rho(self.table)
            self._ep = (pre, per)
        return self._ep

    def preperiod_table(self) -> tuple[int, ...]:
        """The table of T^preperiod, kept from :meth:`eventual_period`."""
        self.eventual_period()
        return self._settled

    def is_isometry(self) -> bool:
        n = len(self.space.points)
        d = self.space.d_by_index
        t = self.table
        return all(d(t[i], t[j]) == d(i, j)
                   for i in range(n) for j in range(i + 1, n))


def _rho(table: Sequence[int]) -> tuple[int, int, tuple[int, ...]]:
    """(pre, per, T^pre) of a table.  Out-degree 1 makes each component of
    its functional graph one rho: a cycle with trees hanging into it, and
    T^(p+q) = T^p exactly when p is at least every tail depth and q is a
    multiple of every cycle length.  So one O(N) walk gives pre, the
    largest depth, and per, the lcm of the cycle lengths; T^pre is then
    composed by repeated squaring."""
    n = len(table)
    depth = [-1] * n       # steps from a point to its cycle, once known
    walk = [-1] * n        # the start of the walk that visited a point
    lengths = set()
    for start in range(n):
        if depth[start] >= 0:
            continue
        path = []
        x = start
        while depth[x] < 0 and walk[x] != start:
            walk[x] = start
            path.append(x)
            x = table[x]
        if depth[x] < 0:  # the walk closed a new cycle at x
            k = path.index(x)
            lengths.add(len(path) - k)
            for y in path[k:]:
                depth[y] = 0
            del path[k:]
        d = depth[x]
        for y in reversed(path):
            d += 1
            depth[y] = d
    pre = max(depth)
    settled, square, k = range(n), table, pre
    while k:
        if k & 1:
            settled = list(map(square.__getitem__, settled))
        k >>= 1
        if k:
            square = list(map(square.__getitem__, square))
    return pre, math.lcm(*lengths), tuple(settled)


def eventual_period(sys: SystemMap) -> tuple[int, int]:
    return sys.eventual_period()


def iterate(sys: SystemMap, k: int) -> SystemMap:
    """The k-th power of the map, as a fresh table; k = 0 is the identity."""
    if k < 0:
        raise InputError("iterate needs k >= 0")
    n = len(sys.space.points)
    cur = tuple(range(n))
    base = sys.table
    for _ in range(k):
        cur = tuple(base[i] for i in cur)
    return SystemMap(sys.space, cur, label=f"{sys.label}^{k}")


def iterate_tables(sys: SystemMap, upto: int) -> list[tuple[int, ...]]:
    """Tables of T^0 .. T^(upto-1); shared helper for checkers."""
    n = len(sys.space.points)
    out = [tuple(range(n))]
    while len(out) < upto:
        prev = out[-1]
        out.append(tuple(sys.table[i] for i in prev))
    return out


# -- generators -----------------------------------------------------------

def circle_space(n: int) -> MetricSpace:
    """Z_n with the circle metric d(i,j) = min(|i-j|, n-|i-j|)/n."""
    if n < 1:
        raise InputError("circle space needs n >= 1")
    # integer rows over n, which is the lcm of the reduced denominators
    rows = [[min(abs(i - j), n - abs(i - j)) for j in range(n)]
            for i in range(n)]
    return MetricSpace(range(n), matrix=rows, denom=n, label=f"Z{n}")


def interval_grid_space(m: int) -> MetricSpace:
    """The grid {i/m : 0 <= i <= m} inside [0,1] with |x - y|."""
    if m < 1:
        raise InputError("grid needs m >= 1")
    pts = [Fraction(i, m) for i in range(m + 1)]
    rows = [[abs(x - y) for y in pts] for x in pts]
    return MetricSpace(pts, matrix=rows, label=f"grid[0,1]/{m}")


def make_rotation(n: int, step: int = 1) -> SystemMap:
    """i -> i + step (mod n) on the circle grid Z_n."""
    if n < 1:
        raise InputError("rotation needs n >= 1")
    space = circle_space(n)
    table = [(i + step) % n for i in range(n)]
    return SystemMap(space, table, label=f"rotation({n},{step})",
                     provenance={"kind": "rotation", "n": n, "step": step})


def make_multiply(n: int, a: int) -> SystemMap:
    """i -> a*i (mod n) on the circle grid Z_n; surjective iff gcd(a,n)=1."""
    if n < 1 or a < 1:
        raise InputError("multiply needs n >= 1 and a >= 1")
    space = circle_space(n)
    table = [(a * i) % n for i in range(n)]
    return SystemMap(space, table, label=f"multiply({n},{a})",
                     provenance={"kind": "multiply", "n": n, "a": a})


#: named piecewise-linear shapes on [0,1]
PIECEWISE_SHAPES: dict[str, tuple[tuple[Fraction, Fraction], ...]] = {
    "half": ((ZERO, ZERO), (ONE, HALF)),
    "tent": ((ZERO, ZERO), (HALF, ONE), (ONE, ZERO)),
    "identity": ((ZERO, ZERO), (ONE, ONE)),
}


def eval_piecewise(breakpoints, x: Fraction) -> Fraction:
    """Exact evaluation of a piecewise-linear map given by breakpoints."""
    bps = [(as_fraction(a), as_fraction(b)) for a, b in breakpoints]
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise InputError(f"{x} outside the breakpoint range")


def make_grid_interval_map(f, m: int, snap: str = "down") -> SystemMap:
    """Snap a piecewise-linear self-map of [0,1] onto the grid {i/m}.

    ``f`` is a shape name from PIECEWISE_SHAPES or a sequence of rational
    (x, y) breakpoints with x running 0 .. 1.  ``snap`` is "down" (floor) or
    "nearest" (ties round up).  A map leaving [0,1] is rejected.
    """
    if isinstance(f, str):
        try:
            bps = PIECEWISE_SHAPES[f]
        except KeyError:
            raise InputError(f"unknown map shape {f!r}") from None
        name = f
    else:
        bps = tuple((as_fraction(a), as_fraction(b)) for a, b in f)
        name = "pl"
    if snap not in ("down", "nearest"):
        raise InputError("snap must be 'down' or 'nearest'")
    xs = [a for a, _ in bps]
    if xs != sorted(set(xs)) or xs[0] != 0 or xs[-1] != 1:
        raise InputError("breakpoints must have increasing x from 0 to 1")
    if any(y < 0 or y > 1 for _, y in bps):
        raise InputError("map leaves [0,1]")
    space = interval_grid_space(m)
    table = []
    for i in range(m + 1):
        y = eval_piecewise(bps, Fraction(i, m))
        t = y * m
        idx = math.floor(t) if snap == "down" else math.floor(t + HALF)
        idx = min(idx, m)
        table.append(idx)
    return SystemMap(space, table, label=f"gridmap({name},{m},{snap})",
                     provenance={"kind": "grid_map", "shape": name if isinstance(f, str) else [
                         [str(a), str(b)] for a, b in bps],
                         "m": m, "snap": snap})


def one_point_system() -> SystemMap:
    return make_rotation(1, 0)


def product_system(factors: Sequence[tuple[SystemMap, int]],
                   state_cap: int = PRODUCT_STATE_CAP) -> SystemMap:
    """Product of the factor systems, each factor advanced exponent steps
    per tick; the metric is the max metric over the coordinates.
    """
    if not factors:
        raise InputError("empty factor list rejected")
    for _, e in factors:
        if not isinstance(e, int) or e < 1:
            raise InputError("exponents must be positive integers")
    total = 1
    for sys_i, _ in factors:
        total *= len(sys_i.space.points)
    if total > state_cap:
        raise BoundExceeded("product system", total, state_cap)

    spaces = [s.space for s, _ in factors]
    points = tuple(itertools.product(*[sp.points for sp in spaces]))

    # state index = mixed-radix code of the factor indices, last factor
    # fastest, matching the order of itertools.product
    sizes = [len(sp.points) for sp in spaces]
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    table = [0]
    for (sys_i, e), size in zip(factors, sizes):
        step = iterate(sys_i, e).table
        table = [high * size + step[c] for high in table for c in range(size)]

    # each factor's integers rescaled to the lcm of the factor denominators
    denom = math.lcm(*(sp.denom for sp in spaces))
    coords = [(stride, size, denom // sp.denom, sp.dist_int)
              for stride, size, sp in zip(strides, sizes, spaces)]

    def dist(i: int, j: int) -> int:
        return max(scale * d(i // stride % size, j // stride % size)
                   for stride, size, scale, d in coords)

    # distinct states differ in some coordinate, and moving only that
    # coordinate realizes the factor's gap
    gap = (min(sp.gap * (denom // sp.denom) for sp in spaces)
           if all(sp.gap is not None for sp in spaces) else None)
    diam = max(sp.diam for sp in spaces)
    label = " x ".join(f"{s.label}^{e}" if e != 1 else s.label
                       for s, e in factors)
    space = MetricSpace(points, fn=dist, denom=denom, diam=diam, gap=gap,
                        label=f"prod({label})")
    return SystemMap(space, table, label=label,
                     provenance={"kind": "product"})
