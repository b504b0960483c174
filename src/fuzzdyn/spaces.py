"""Finite metric spaces with exact rational distances, and table dynamics on them.

Every distance is a :class:`fractions.Fraction`; no floats appear anywhere.
Spaces either carry a dense distance table (an ingested document) or a
distance function evaluated on demand, never cached: the circle and grid
formulas, products, and the hyperspace and fuzzy lifts.  All values are
immutable after construction and every operation is pure.
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

#: cap on every materialized state space: the codes a lift or enumeration
#: steps (2^n subset masks, radix^n fuzzy codes), or a product's states
STATE_CAP = 3 ** 12

#: cap on the points of a generated circle or interval grid space: it bounds
#: the checks that read every pair of points or N x (pre + per) steps
TABLE_POINT_CAP = 2048

#: cap on the points of a metric whose axioms are validated: validation
#: reads every triple of points
METRIC_POINT_CAP = 512


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
    renders the point id from its code only when the point is read.
    ``encode`` is the inverse of ``render`` and raises on anything that is
    no point id; ``index`` reads a point's index through it, building no
    table."""

    __slots__ = ("codes", "render", "encode")

    def __init__(self, codes: Sequence[int], render: Callable[[int], Point],
                 encode: Callable[[Point], int]):
        self.codes = codes
        self.render = render
        self.encode = encode

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.render, self.codes[i]))
        return self.render(self.codes[i])

    def __iter__(self):
        return map(self.render, self.codes)

    def index(self, p: Point) -> int:
        return self.codes.index(self.encode(p))


def _check_states(what: str, count: int) -> None:
    """Raise the bound ``what`` when ``count`` exceeds ``STATE_CAP``."""
    if count > STATE_CAP:
        raise BoundExceeded(what, count, STATE_CAP)


class LiftTable(Sequence):
    """The step table of a lift of a base map, read one state at a time.

    State i is the code ``codes[i]``, and ``codes.index`` ranks a code.
    ``step(base, codes)`` is the list of the image codes of a batch of codes
    under the lift of the map ``base``; ``codes`` None is the kernel's
    column route, the image of all ``count`` codes below radix^n, by code.
    An entry read by index steps its one code and is kept nowhere; a reader
    of every entry (``whole``, and iteration) raises the bound ``name`` when
    ``count`` passes the state cap, else builds the whole table once.

    Every lift is Zadeh's extension and holds a point mass at every base
    point, and ``heights`` counts the heights of its states: T_L^k is the
    lift of T^k, and the lift takes the base's eventual period (see
    :func:`fuzzdyn.hyperspace._cut_lift`)."""

    __slots__ = ("base", "codes", "step", "name", "count", "heights", "_whole")

    def __init__(self, base: "SystemMap", codes: Sequence[int],
                 step: Callable[["SystemMap", Sequence[int] | None],
                                list[int]],
                 name: str, count: int, heights: int):
        self.base = base
        self.codes = codes
        self.step = step
        self.name = name
        self.count = count
        self.heights = heights
        self._whole = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> int:
        if self._whole is not None:
            return self._whole[i]
        codes = self.codes
        return codes.index(self.step(self.base, [codes[i]])[0])

    def __iter__(self):
        return iter(self.whole())

    def whole(self) -> list[int]:
        if self._whole is None:
            _check_states(self.name, self.count)
            images = self.step(self.base, None)
            codes = self.codes
            rank = dict(zip(codes, itertools.count()))
            self._whole = list(map(rank.__getitem__,
                                   map(images.__getitem__, codes)))
        return self._whole

    def first_apart(self) -> int | None:
        """The first state whose T_L^pre image differs from that of state
        0, None when there is none.  T_L^pre is the lift of T^pre, so
        T_L^pre(u) is h(u) 1_x for every state u of height h(u) when T^pre
        is the constant x; and the point masses of one height at distinct
        points of T^pre(X) have distinct images otherwise.  So T_L^pre is
        constant iff T^pre is and the states have one height.  Else the
        codes of states 1, 2, ... are stepped by T^pre in batches of 8, 16,
        ... up to 1,024, until one leaves state 0's image."""
        base, codes = self.base, self.codes
        if self.heights == 1 and len(set(base.preperiod_table())) == 1:
            return None
        power = iterate(base, base.eventual_period()[0])
        first, = self.step(power, [codes[0]])
        start, size = 1, 8
        while start < len(codes):
            stop = min(start + size, len(codes))
            images = self.step(power, codes[start:stop])
            j = next((j for j, t in enumerate(images, start) if t != first),
                     None)
            if j is not None:
                return j
            start, size = stop, min(2 * size, 1024)
        return None


class MetricSpace:
    """Ordered point set with an exact rational metric.

    Every space answers ``dist_int(i, j)``: the distance of points i and j
    as an integer over the common denominator ``denom``.  Either ``matrix``
    (dense table, list of rows) or ``fn`` plus ``denom`` and an explicit
    ``diam`` must be supplied.  A table space scales its table once, over
    the lcm of the denominators of every entry, so asymmetric tables scale
    exactly too, and coerces each distinct entry once; a table of integers
    comes with its ``denom``, already scaled.  A formula metric ``fn(i, j)``
    is called with an index pair, returns the scaled integer and keeps
    nothing per pair.  ``d_by_index`` renders one distance as a Fraction,
    for witnesses and serialization.  ``points`` is copied to a tuple,
    except a ``_RenderedPoints`` sequence, which a lift passes so that a
    point id is rendered only when read, and looked up through its code.

    ``gap`` is the least scaled distance between two distinct points when
    the space knows it, else None: a table space with a symmetric table and
    zero diagonal knows it, and a formula space, lift or product is told it
    by its constructor.  ``scan``, when given, makes the reader that
    ``scan_metric`` returns.  The point-to-index map is built on first use;
    table spaces build it at once, which rejects duplicate point ids on
    ingest.
    """

    __slots__ = ("points", "label", "dist_int", "denom", "diam", "gap",
                 "_scan", "_index", "_rows")

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
        self._rows = None
        if matrix is not None:
            self._point_index()
            n = len(pts)
            if len(matrix) != n or any(len(r) != n for r in matrix):
                raise InputError("distance table shape does not match points")
            if denom is None:
                denom, matrix = _scaled_table(matrix)
            ints = self._rows = matrix
            self.denom = denom
            self.dist_int = lambda i, j: ints[i][j]
            metric, least, most = True, [], []
            for i, row in enumerate(ints):      # the upper triangle, by rows
                upper = row[i + 1:]
                metric = metric and row[i] == 0 and upper == [
                    r[i] for r in ints[i + 1:]]
                if upper:
                    least.append(min(upper))
                    most.append(max(upper))
            self.gap = min(least) if least and metric else None
            self.diam = Fraction(max(most, default=0), denom)
        elif fn is not None:
            if diam is None or denom is None:
                raise InputError("lazy metric needs an explicit diameter "
                                 "and denominator")
            self.dist_int = fn
            self.denom = denom
            self.gap = gap
            self.diam = as_fraction(diam)
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
    def nontrivial(self) -> bool:
        """At least two points (positive diameter on honest metrics)."""
        return len(self.points) >= 2

    def __contains__(self, p) -> bool:
        try:
            self.index(p)
        except InputError:
            return False
        return True

    def index(self, p: Point) -> int:
        try:
            if isinstance(self.points, _RenderedPoints):
                return self.points.index(p)
            return self._point_index()[p]
        except (KeyError, ValueError):
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
        """The gap as a Fraction: None when the space knows no positive
        gap, as on one point."""
        return Fraction(self.gap, self.denom) if self.gap else None


def _keyed(row: Sequence) -> Iterable[tuple[type, Any]]:
    """Each entry of a table row keyed by its type and value, so that 1,
    "1", 1.0 and True stay apart."""
    return zip(map(type, row), row)


def _scaled_table(matrix: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """A table of rationals as integers over the lcm of its denominators.
    Each distinct entry is coerced and scaled once; the first entry that is
    no rational, in row order, raises."""
    try:
        keys = dict.fromkeys(itertools.chain.from_iterable(map(_keyed,
                                                               matrix)))
    except TypeError:
        # an unhashable entry is no rational: coerce in order, so that the
        # first bad entry raises
        for row in matrix:
            list(map(as_fraction, row))
        raise
    values = {key: as_fraction(key[1]) for key in keys}
    denom = math.lcm(*{v.denominator for v in values.values()})
    scaled = {key: v.numerator * (denom // v.denominator)
              for key, v in values.items()}
    return denom, [list(map(scaled.__getitem__, _keyed(row)))
                   for row in matrix]


def _scaled_matrix(space: MetricSpace) -> tuple[int, list[list[int]]]:
    """Every distance as an integer over the space's common denominator: a
    table space's own rows, which the caller reads and never changes."""
    if space._rows is not None:
        return space.denom, space._rows
    n = len(space.points)
    d = space.dist_int
    return space.denom, [[d(i, j) for j in range(n)] for i in range(n)]


def _check_metric_size(n: int) -> None:
    """Raise the bound of metric validation, which reads every triple of
    points, for a metric of n points above ``METRIC_POINT_CAP``."""
    if n > METRIC_POINT_CAP:
        raise BoundExceeded("metric validation", n, METRIC_POINT_CAP)


def validate_metric(space: MetricSpace) -> list[str]:
    """Check all metric axioms exhaustively; return the list of violations.

    Validation never aborts on a bad metric; each violation names the
    offending pair or triple.  Works on lazy spaces too (distances are
    evaluated on demand), guarded by ``METRIC_POINT_CAP``.  Distances are
    compared as scaled integers; a pair (i, k) is scanned for a triangle
    violator j only when the least d(i, j) + d(j, k) over all j is below
    d(i, k).
    """
    n = len(space.points)
    _check_metric_size(n)
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
    """Total endomap of a MetricSpace, stored as an index table.

    ``period``, when given, is the map's (preperiod, period), known to the
    caller by a lemma; a lift passes its base's (see
    :func:`fuzzdyn.hyperspace._cut_lift`).  A lift's ``table`` is a
    :class:`LiftTable`, closed by construction, so it is neither copied nor
    range-checked; a reader of every entry reads ``whole_table()``."""

    __slots__ = ("space", "table", "label", "provenance", "_ep", "_settled",
                 "_pre")

    def __init__(self, space: MetricSpace, table: Sequence[int],
                 label: str = "system", provenance: dict | None = None,
                 period: tuple[int, int] | None = None):
        n = len(space.points)
        tbl = table if isinstance(table, LiftTable) else tuple(table)
        if len(tbl) != n:
            raise InputError("map table length does not match the space")
        if tbl is not table and (
                not all(issubclass(t, int) for t in set(map(type, tbl)))
                or min(tbl) < 0 or max(tbl) >= n):
            raise InputError("map table entry out of range")
        self.space = space
        self.table = tbl
        self.label = label
        self.provenance = provenance
        self._ep = period
        self._settled = None
        self._pre = None

    def __repr__(self) -> str:
        return f"SystemMap({self.label!r}, {len(self.space)} points)"

    def image_indices(self, idxs: Iterable[int]) -> frozenset:
        return frozenset(self.table[i] for i in idxs)

    def whole_table(self) -> Sequence[int]:
        """Every entry of the table at once: a lift's is built by its
        kernel's column route on first read, where its bound is checked."""
        table = self.table
        return table.whole() if isinstance(table, LiftTable) else table

    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """Preimage index lists, one per point."""
        if self._pre is None:
            buckets: list[list[int]] = [[] for _ in self.space.points]
            for src, dst in enumerate(self.whole_table()):
                buckets[dst].append(src)
            self._pre = tuple(tuple(b) for b in buckets)
        return self._pre

    def eventual_period(self) -> tuple[int, int]:
        """Smallest (preperiod, period) with T^(p+q) = T^p as tables: the
        ``period`` the map was built with, else one walk over the table."""
        if self._ep is None:
            self._ep = _rho(self.whole_table())
        return self._ep

    def preperiod_table(self) -> tuple[int, ...]:
        """The table of T^preperiod, composed by :func:`_power` on first
        read and kept."""
        if self._settled is None:
            self._settled = _power(self.whole_table(),
                                   self.eventual_period()[0])
        return self._settled

    def first_apart(self) -> int | None:
        """The first state whose T^preperiod image differs from that of
        state 0, None when T^preperiod is constant; a lift reads it by
        :meth:`LiftTable.first_apart`."""
        table = self.table
        if isinstance(table, LiftTable):
            return table.first_apart()
        settled = self.preperiod_table()
        return next((j for j, t in enumerate(settled) if t != settled[0]),
                    None)


def _rho(table: Sequence[int]) -> tuple[int, int]:
    """(pre, per) of a table.  Out-degree 1 makes each component of its
    functional graph one rho: a cycle with trees hanging into it, and
    T^(p+q) = T^p exactly when p is at least every tail depth and q is a
    multiple of every cycle length.  So one O(N) walk gives pre, the
    largest depth, and per, the lcm of the cycle lengths."""
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
    return max(depth), math.lcm(*lengths)


def _power(table: Sequence[int], k: int) -> tuple[int, ...]:
    """The table of T^k, composed by repeated squaring; k = 0 is the
    identity."""
    power, square = range(len(table)), table
    while k:
        if k & 1:
            power = list(map(square.__getitem__, power))
        k >>= 1
        if k:
            square = list(map(square.__getitem__, square))
    return tuple(power)


def eventual_period(sys: SystemMap) -> tuple[int, int]:
    return sys.eventual_period()


def iterate(sys: SystemMap, k: int) -> SystemMap:
    """The k-th power of the map, as a fresh table; k = 0 is the identity."""
    if k < 0:
        raise InputError("iterate needs k >= 0")
    return SystemMap(sys.space, _power(sys.whole_table(), k),
                     label=f"{sys.label}^{k}")


# -- generators -----------------------------------------------------------

def circle_space(n: int) -> MetricSpace:
    """Z_n with the circle metric d(i,j) = min(|i-j|, n-|i-j|)/n, read by
    formula: the diameter is floor(n/2)/n and the gap 1/n."""
    if n < 1:
        raise InputError("circle space needs n >= 1")
    if n > TABLE_POINT_CAP:
        raise BoundExceeded("table space", n, TABLE_POINT_CAP)

    def dist(i: int, j: int) -> int:
        k = abs(i - j)      # the shorter way round
        return k if 2 * k <= n else n - k
    return MetricSpace(range(n), fn=dist, denom=n, diam=Fraction(n // 2, n),
                       gap=1 if n > 1 else None, label=f"Z{n}")


def interval_grid_space(m: int) -> MetricSpace:
    """The grid {i/m : 0 <= i <= m} inside [0,1] with |x - y|, read by
    formula: the diameter is 1 and the gap 1/m."""
    if m < 1:
        raise InputError("grid needs m >= 1")
    if m + 1 > TABLE_POINT_CAP:
        raise BoundExceeded("table space", m + 1, TABLE_POINT_CAP)
    return MetricSpace([Fraction(i, m) for i in range(m + 1)],
                       fn=lambda i, j: abs(i - j), denom=m, diam=ONE, gap=1,
                       label=f"grid[0,1]/{m}")


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
    if not xs or xs != sorted(set(xs)) or xs[0] != 0 or xs[-1] != 1:
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


def product_system(factors: Sequence[tuple[SystemMap, int]]) -> SystemMap:
    """Product of the factor systems, each factor advanced exponent steps
    per tick; the metric is the max metric over the coordinates.
    """
    if not factors:
        raise InputError("empty factor list rejected")
    for _, e in factors:
        if not isinstance(e, int) or e < 1:
            raise InputError("exponents must be positive integers")
    spaces = [s.space for s, _ in factors]
    sizes = [len(sp.points) for sp in spaces]
    _check_states("product system", math.prod(sizes))
    points = tuple(itertools.product(*[sp.points for sp in spaces]))

    # state index = mixed-radix code of the factor indices, last factor
    # fastest, matching the order of itertools.product
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
