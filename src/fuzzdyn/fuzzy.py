"""Quantized fuzzy sets: level grids, alpha cuts, the levelwise metric,
the sup-over-preimages extension of a map, and its grade-distorted variant.

Grades live on a finite grid {0, 1/m, ..., 1}.  With grid grades on a finite
space the whole family of fuzzy states is finite and closed under the
extended dynamics, so every supremum in the definitions is a maximum and
every check below is an exact finite computation.

Conventions that make the finite picture consistent:

* the sup over an empty preimage is 0, so the empty fuzzy state is a fixed
  point and cut identities survive non-surjective maps;
* the sup over alpha in (0,1] of cut distances is a max over grid levels,
  because cuts are constant on the half-open intervals between levels.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .errors import BoundExceeded, InputError
from .hyperspace import CompactSet, _cut_lift
from .spaces import (MetricSpace, Point, SystemMap, ZERO, ONE, _RenderedPoints,
                     as_fraction, point_label)

#: default cap on enumerated fuzzy states, (m+1)^|X|
DEFAULT_STATE_CAP = 3 ** 9


class LevelGrid:
    """The positive grade levels {1/m, ..., 1}; grades may also be 0."""

    __slots__ = ("m", "levels", "_levelset")

    def __init__(self, m: int):
        if m < 1:
            raise InputError("grid resolution must be >= 1")
        self.m = m
        self.levels = tuple(Fraction(i, m) for i in range(1, m + 1))
        self._levelset = frozenset(self.levels) | {ZERO}

    def admits(self, value: Fraction) -> bool:
        return value in self._levelset

    def with_zero(self) -> tuple[Fraction, ...]:
        return (ZERO,) + self.levels

    def __eq__(self, other) -> bool:
        return isinstance(other, LevelGrid) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("LevelGrid", self.m))

    def __repr__(self) -> str:
        return f"LevelGrid(1/{self.m})"


class FuzzySet:
    """Grade function on a finite space with values in {0} + grid levels."""

    __slots__ = ("space", "grid", "grades")

    def __init__(self, space: MetricSpace, grid: LevelGrid,
                 grades: Sequence[Fraction]):
        g = tuple(as_fraction(v) for v in grades)
        if len(g) != len(space.points):
            raise InputError("grade vector length does not match the space")
        for v in g:
            if not grid.admits(v):
                raise InputError(f"grade {v} is not on the grid")
        self.space = space
        self.grid = grid
        self.grades = g

    @classmethod
    def from_map(cls, space: MetricSpace, grid: LevelGrid, mapping: dict) -> "FuzzySet":
        grades = [as_fraction(mapping.get(p, ZERO)) for p in space.points]
        return cls(space, grid, grades)

    def grade(self, p: Point) -> Fraction:
        return self.grades[self.space.index(p)]

    @property
    def height(self) -> Fraction:
        return max(self.grades)

    @property
    def is_empty(self) -> bool:
        return self.height == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, FuzzySet) and other.space is self.space
                and other.grid == self.grid and other.grades == self.grades)

    def __hash__(self) -> int:
        return hash((id(self.space), self.grid.m, self.grades))

    def __repr__(self) -> str:
        pairs = ",".join(f"{point_label(p)}:{g}" for p, g in
                         zip(self.space.points, self.grades) if g > 0)
        return "Fuzzy{" + pairs + "}"


def alpha_cut(a: FuzzySet, alpha: Fraction) -> CompactSet:
    """The superlevel set {x : grade(x) >= alpha}, for alpha in (0, 1]: the
    cut mask of the least grid level k/m >= alpha."""
    alpha = as_fraction(alpha)
    if not (0 < alpha <= 1):
        raise InputError("alpha must lie in (0, 1]")
    m = a.grid.m
    mask = _cut_masks(tuple(int(v * m) for v in a.grades),
                      m)[math.ceil(alpha * m) - 1]
    return CompactSet(a.space, (p for bit, p in enumerate(a.space.points)
                                if mask >> bit & 1))


class GFunction:
    """Nondecreasing grade distortion on {0} + grid levels with g(0) = 0,
    g(1) = 1, values on the grid."""

    __slots__ = ("grid", "table")

    def __init__(self, grid: LevelGrid, table: dict):
        keys = grid.with_zero()
        tbl = {}
        for k in keys:
            if k not in table:
                raise InputError(f"g is missing the level {k}")
            v = as_fraction(table[k])
            if not grid.admits(v):
                raise InputError(f"g({k}) = {v} leaves the grid")
            tbl[k] = v
        if tbl[ZERO] != 0:
            raise InputError("g(0) must be 0")
        if tbl[ONE] != 1:
            raise InputError("g(1) must be 1")
        prev = ZERO
        for k in keys:
            if tbl[k] < prev:
                raise InputError("g must be nondecreasing")
            prev = tbl[k]
        self.grid = grid
        self.table = tbl

    @classmethod
    def identity(cls, grid: LevelGrid) -> "GFunction":
        return cls(grid, {k: k for k in grid.with_zero()})

    def __call__(self, level: Fraction) -> Fraction:
        try:
            return self.table[level]
        except KeyError:
            raise InputError(f"{level} is not a grid level") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, GFunction) and other.grid == self.grid
                and other.table == self.table)

    def __hash__(self) -> int:
        return hash((self.grid.m, tuple(sorted(self.table.items()))))


def xi_of(g: GFunction) -> dict[Fraction, Fraction]:
    """The level transfer x -> least y with g(y) >= x, on {0} + levels.

    Exists because g(1) = 1; positive for positive x because g(0) = 0.
    Nondecreasing since g is.
    """
    keys = g.grid.with_zero()
    out = {}
    for x in keys:
        for y in keys:
            if g(y) >= x:
                out[x] = y
                break
    return out


def xi_iterate(g: GFunction, n: int, alpha: Fraction) -> Fraction:
    """n-fold application of the level transfer to alpha, a level of
    {0} + grid levels."""
    if n < 0:
        raise InputError("the iterate count must be >= 0")
    xi = xi_of(g)
    if alpha not in xi:
        raise InputError(f"{alpha} is not a grid level")
    cur = alpha
    for _ in range(n):
        cur = xi[cur]
    return cur


def g_fuzzify_apply(sys: SystemMap, g: GFunction | None,
                    a: FuzzySet) -> FuzzySet:
    """New grade at x is the max of g(grade) over the preimage of x (0 if
    none), stepped by the lift kernel; g = None is Zadeh's extension."""
    if a.space is not sys.space:
        raise InputError("fuzzy set does not live on the system's space")
    grid = a.grid
    n, radix = len(a.grades), grid.m + 1
    code = _code((int(v * grid.m) for v in a.grades), radix)
    image, = _code_steps(n, radix, sys.preimages(), _g_levels(grid, g),
                         [code])
    render = _renderer(n, radix, grid.with_zero())
    return FuzzySet(a.space, grid, render(image))


def zadeh_apply(sys: SystemMap, a: FuzzySet) -> FuzzySet:
    """New grade at x is the max grade over the preimage of x (0 if none)."""
    return g_fuzzify_apply(sys, None, a)


def normalize_constraint(constraint) -> tuple:
    """Normal form: ("all",), ("nonempty",), ("eq", lam), ("ge", lam)."""
    if constraint is None or constraint == "all":
        return ("all",)
    if constraint in ("nonempty", "f0"):
        return ("nonempty",)
    if isinstance(constraint, tuple) and len(constraint) == 2:
        kind, lam = constraint
        lam = as_fraction(lam)
        if kind in ("eq", "ge"):
            if lam <= 0:
                raise InputError("height constraints need a positive level")
            return (kind, lam)
    raise InputError(f"unknown constraint {constraint!r}")


def _satisfies(height: Fraction, norm: tuple) -> bool:
    if norm[0] == "all":
        return True
    if norm[0] == "nonempty":
        return height > 0
    if norm[0] == "eq":
        return height == norm[1]
    return height >= norm[1]


def constraint_label(norm: tuple) -> str:
    if norm[0] == "all":
        return "all"
    if norm[0] == "nonempty":
        return "F0"
    op = "=" if norm[0] == "eq" else ">="
    return f"h{op}{norm[1]}"


def _enumeration_choices(grid: LevelGrid, norm: tuple) -> tuple[Fraction, ...]:
    """Grade values worth enumerating under the constraint.  A height-eq
    slice never uses grades above its level, which keeps its loop cost at
    the slice scale rather than the full grid scale."""
    if norm[0] == "eq":
        return (ZERO,) + tuple(v for v in grid.levels if v <= norm[1])
    return grid.with_zero()


def enumeration_cost(n_points: int, grid: LevelGrid, constraint=None) -> int:
    """States visited by the enumeration loop for this constraint."""
    norm = normalize_constraint(constraint)
    return len(_enumeration_choices(grid, norm)) ** n_points


def enumerate_fuzzy(space: MetricSpace, grid: LevelGrid, constraint=None,
                    cap: int = DEFAULT_STATE_CAP):
    """Every grade function satisfying the constraint, exactly once, in the
    state order of the fuzzy lift.

    The bound applies to the states the loop visits (all (m+1)^|X| of them,
    except that a height-eq slice restricts to its own grade range).
    """
    n = len(space.points)
    radix, codes, _ = _states(n, grid, normalize_constraint(constraint), cap)
    render = _renderer(n, radix, grid.with_zero())
    for code in codes:
        yield FuzzySet(space, grid, render(code))


# -- state codes -------------------------------------------------------------
#
# A state of a lift on n points is its mixed-radix code over the levels
# 0..radix-1 of its slice, first point most significant: ascending codes are
# ``itertools.product`` order.  Point j has the stride radix^(n-1-j).


def _code(levels, radix: int) -> int:
    """The code of integer levels, first point most significant."""
    return reduce(lambda code, k: code * radix + k, levels, 0)


def _renderer(n: int, radix: int,
              values: Sequence[Point]) -> Callable[[int], tuple]:
    """code -> the tuple of ``values`` of its levels."""
    def render(code: int) -> tuple:
        out = []
        for _ in range(n):
            code, k = divmod(code, radix)
            out.append(values[k])
        return tuple(reversed(out))
    return render


def _code_heights(n: int, radix: int) -> list[int]:
    """The height (largest level) of every code on n points, by code."""
    heights = [0]
    levels = range(radix)
    for _ in range(n):
        heights = [h if h > k else k for h in heights for k in levels]
    return heights


def _states(n: int, grid: LevelGrid, norm: tuple,
            cap: int) -> tuple[int, Sequence[int], list[int] | None]:
    """(radix, codes, rank) of the states on n points that satisfy the
    normalized constraint, codes ascending.  The level and the bound are
    checked at the call, before anything is built.  State i of "all" has the
    code i, and of "nonempty" the code i + 1; a height slice has a rank array
    instead, where rank[c] - 1 is the index of the state with code c."""
    if norm[0] in ("eq", "ge") and not grid.admits(norm[1]):
        raise InputError(f"constraint level {norm[1]} is not on the grid")
    radix = len(_enumeration_choices(grid, norm))
    total = radix ** n
    if total > cap:
        raise BoundExceeded("fuzzy lift", total, cap)
    if norm[0] == "all":
        return radix, range(total), None
    if norm[0] == "nonempty":
        return radix, range(1, total), None
    keep = [_satisfies(v, norm) for v in grid.with_zero()]
    kept = list(map(keep.__getitem__, _code_heights(n, radix)))
    return (radix, list(itertools.compress(range(total), kept)),
            list(itertools.accumulate(kept)))


def _g_levels(grid: LevelGrid, g: GFunction | None) -> tuple[int, ...]:
    """g on the integer levels 0..m (level k is the grade k/m); the
    identity when g is None."""
    if g is None:
        return tuple(range(grid.m + 1))
    if g.grid != grid:
        raise InputError("grade distortion uses a different grid")
    return tuple(int(g.table[v] * grid.m) for v in grid.with_zero())


def _code_steps(n: int, radix: int, pre, gint: Sequence[int],
                codes: Sequence[int] | None = None) -> list[int]:
    """One step of the g-extension on state codes: the image code of every
    code on n points (``codes`` None), or of each code of a batch.  The new
    level at x is the max of g over the levels of the preimages of x (0 if
    none), so the image code is the sum over x of the stride of x times
    that max.  Every g value of a level below ``radix`` must stay below it.

    Works column by column: the column of point j holds g of j's level
    times the stride of its image, and the column of x is the elementwise
    max of its preimages' columns; the image codes are their sum.  Over
    every code, the column of j repeats with period radix * stride(j), so
    the column of x is built over one period of its first (most
    significant) preimage, and the sum grows from the shortest period to
    the longest, which is every code, since point 0 is somebody's preimage.
    """
    strides = [radix ** (n - 1 - j) for j in range(n)]

    def column(j: int, stride: int, period: int) -> list[int]:
        values = [gint[k] * stride for k in range(radix)]
        step = strides[j]
        if codes is not None:
            return [values[c // step % radix] for c in codes]
        block = []
        for v in values:
            block += [v] * step
        return block * (period // len(block))

    cols = []
    for x, sources in enumerate(pre):
        if not sources:
            continue
        period = radix * strides[sources[0]]
        col = column(sources[0], strides[x], period)
        for j in sources[1:]:
            col = [a if a > b else b
                   for a, b in zip(col, column(j, strides[x], period))]
        cols.append(col)
    image = [0]
    for col in sorted(cols, key=len):
        image = [a + b for a, b in zip(itertools.cycle(image), col)]
    return image


def _cut_masks(s: Sequence[int], m: int) -> list[int]:
    """Bitmasks of the cuts at levels 1/m .. 1 of integer levels, point j
    at bit j."""
    masks = [0] * (m + 1)
    for bit, k in enumerate(s):
        masks[k] |= 1 << bit
    for k in range(m - 1, 0, -1):
        masks[k] |= masks[k + 1]
    del masks[0]
    return masks


def _cut_reader(n: int, radix: int,
                m: int) -> Callable[[int], tuple[int, ...]]:
    """code -> the cut masks at levels 1/m .. 1 of the state with that code
    on n points: the OR of two table entries, the masks of the code's high
    and of its low half of digits, each table about the square root of the
    codes long."""
    low = n // 2

    def table(size: int, shift: int) -> list[list[int]]:
        return [[mask << shift for mask in _cut_masks(levels, m)]
                for levels in itertools.product(range(radix), repeat=size)]

    high, lows, split = table(n - low, 0), table(low, n - low), radix ** low

    def cuts(code: int) -> tuple[int, ...]:
        hi, lo = divmod(code, split)
        return tuple(map(operator.or_, high[hi], lows[lo]))
    return cuts


def _lift_table(sys: SystemMap, grid: LevelGrid, norm: tuple,
                g: GFunction | None,
                cap: int) -> tuple[int, Sequence[int], list[int]]:
    """(radix, codes, table): the codes of the lift's states under the
    normalized constraint and the index table of one g-extension step on
    them.  A state stepped out of the family is an input error.

    The extension of a total map by a nondecreasing g sends a state of
    height h to one of height g(h), so the family is closed iff g keeps each
    of its heights inside it; the first state of height h, in product
    order, is (0, ..., 0, h), whose code is h."""
    n = len(sys.space.points)
    radix, codes, rank = _states(n, grid, norm, cap)
    gint = _g_levels(grid, g)
    keep = [_satisfies(v, norm) for v in grid.with_zero()]
    bad = next((h for h in range(radix) if keep[h] and not keep[gint[h]]),
               None)
    if bad is not None:
        values = grid.with_zero()
        raise InputError(
            f"lift not invariant: state {(ZERO,) * (n - 1) + (values[bad],)} "
            f"maps to height {values[gint[bad]]} "
            f"outside constraint {constraint_label(norm)}")
    images = _code_steps(n, radix, sys.preimages(), gint)
    if norm[0] == "all":
        table = images
    elif norm[0] == "nonempty":
        table = [c - 1 for c in images[1:]]
    else:
        table = [rank[images[c]] - 1 for c in codes]
    return radix, codes, table


def fuzzy_lift_system(sys: SystemMap, grid: LevelGrid, constraint=None,
                      g: GFunction | None = None,
                      cap: int = DEFAULT_STATE_CAP) -> SystemMap:
    """The extended dynamics on the enumerated fuzzy states, as a SystemMap.

    A state reads as its tuple of grades, and the metric is the levelwise
    distance of the shared lift kernel, read from each state's cut bitmasks
    (kept once computed).  If the enumerated family is not closed under the map
    (possible for distorted grades and height constraints), that is
    reported as an error rather than repaired.

    Internally a state is its code (see :func:`_states`); ``space.points``
    is a read-only sequence that renders a code into its tuple of grades,
    built from the shared ``grid.with_zero()`` values, only when read.
    """
    norm = normalize_constraint(constraint)
    n = len(sys.space.points)
    radix, codes, table = _lift_table(sys, grid, norm, g, cap)
    m = grid.m
    read_cuts = _cut_reader(n, radix, m)
    masks: list[tuple[int, ...] | None] = [None] * len(codes)

    def cuts(i: int) -> tuple[int, ...]:
        hit = masks[i]
        if hit is None:
            hit = masks[i] = read_cuts(codes[i])
        return hit

    points = _RenderedPoints(codes, _renderer(n, radix, grid.with_zero()))
    label = f"F[{constraint_label(norm)}]({sys.label};m={m})"
    prov = {"kind": "fuzzy_lift", "m": m,
            "constraint": constraint_label(norm),
            "g": None if g is None else {str(k): str(v)
                                         for k, v in sorted(g.table.items())}}
    return _cut_lift(sys, points, cuts, table, label, prov)
