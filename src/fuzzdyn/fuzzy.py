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
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BoundExceeded, InputError
from .hyperspace import CompactSet, _cut_lift
from .spaces import (MetricSpace, Point, SystemMap, ZERO, ONE, as_fraction,
                     point_label)

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
    step = _grade_step(tuple(int(v * grid.m) for v in a.grades),
                       sys.preimages(), _g_levels(grid, g))
    values = grid.with_zero()
    return FuzzySet(a.space, grid, [values[k] for k in step])


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
    values = grid.with_zero()
    for s in _grade_states(len(space.points), grid,
                           normalize_constraint(constraint), cap):
        yield FuzzySet(space, grid, [values[k] for k in s])


def _grade_states(n: int, grid: LevelGrid, norm: tuple,
                  cap: int) -> Iterator[tuple[int, ...]]:
    """The integer grade tuples on n points (level k is the grade k/m) that
    satisfy the normalized constraint, in ``itertools.product`` order.  The
    level and the bound are checked at the call, before any state is made."""
    if norm[0] in ("eq", "ge") and not grid.admits(norm[1]):
        raise InputError(f"constraint level {norm[1]} is not on the grid")
    levels = len(_enumeration_choices(grid, norm))
    total = levels ** n
    if total > cap:
        raise BoundExceeded("fuzzy lift", total, cap)
    keep = [_satisfies(v, norm) for v in grid.with_zero()[:levels]]
    states = itertools.product(range(levels), repeat=n)
    return states if all(keep) else (s for s in states if keep[max(s)])


def _g_levels(grid: LevelGrid, g: GFunction | None) -> tuple[int, ...]:
    """g on the integer levels 0..m (level k is the grade k/m); the
    identity when g is None."""
    if g is None:
        return tuple(range(grid.m + 1))
    if g.grid != grid:
        raise InputError("grade distortion uses a different grid")
    return tuple(int(g.table[v] * grid.m) for v in grid.with_zero())


def _grade_steps(states: Sequence[tuple], pre,
                 gint: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """One step of the g-extension on a batch of integer grade tuples, in
    batch order: the new level at x is the max of g over the levels of the
    preimages of x (0 if none).

    Works column by column: column j holds g of the level of point j across
    the batch, and the new column of x is the elementwise max of its
    preimages' columns.  The images are streamed, never held as a list.
    """
    cols = [tuple(map(gint.__getitem__, c)) for c in zip(*states)]
    if not cols:
        return iter(())
    zeros = (0,) * len(cols[0])
    out = [tuple(map(max, *map(cols.__getitem__, p))) if len(p) > 1
           else cols[p[0]] if p else zeros for p in pre]
    return zip(*out)


def _grade_step(s: tuple, pre, gint: Sequence[int]) -> tuple[int, ...]:
    """The g-extension step of one integer grade tuple."""
    return next(_grade_steps((s,), pre, gint))


def _cut_masks(s: tuple, m: int) -> list[int]:
    """Bitmasks of the cuts at levels 1/m .. 1 of an integer grade tuple."""
    masks = [0] * (m + 1)
    for bit, k in enumerate(s):
        masks[k] |= 1 << bit
    for k in range(m - 1, 0, -1):
        masks[k] |= masks[k + 1]
    del masks[0]
    return masks


def _lift_table(sys: SystemMap, grid: LevelGrid, norm: tuple,
                g: GFunction | None,
                cap: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The integer grade states of the lift under the normalized constraint
    and the index table of one g-extension step on them.  A state stepped
    out of the family is an input error."""
    states = list(_grade_states(len(sys.space.points), grid, norm, cap))
    gint = _g_levels(grid, g)
    index = {s: i for i, s in enumerate(states)}
    pre = sys.preimages()
    table = list(map(index.get, _grade_steps(states, pre, gint)))
    if None in table:
        values = grid.with_zero()
        s = states[table.index(None)]
        raise InputError(
            f"lift not invariant: state {tuple(values[k] for k in s)} "
            f"maps to height {values[max(_grade_step(s, pre, gint))]} "
            f"outside constraint {constraint_label(norm)}")
    return states, table


def fuzzy_lift_system(sys: SystemMap, grid: LevelGrid, constraint=None,
                      g: GFunction | None = None,
                      cap: int = DEFAULT_STATE_CAP) -> SystemMap:
    """The extended dynamics on the enumerated fuzzy states, as a SystemMap.

    States are grade tuples, and the metric is the levelwise distance of
    the shared lift kernel, read from each state's cut bitmasks (kept once
    computed).  If the enumerated family is not closed under the map
    (possible for distorted grades and height constraints), that is
    reported as an error rather than repaired.

    Internally a grade is its integer level k in 0..m (the grade k/m); the
    point ids are built from the shared ``grid.with_zero()`` values.
    """
    norm = normalize_constraint(constraint)
    states, table = _lift_table(sys, grid, norm, g, cap)
    m = grid.m
    masks: list[list[int] | None] = [None] * len(states)

    def cuts(i: int) -> list[int]:
        hit = masks[i]
        if hit is None:
            hit = masks[i] = _cut_masks(states[i], m)
        return hit

    values = grid.with_zero()
    points = tuple(tuple(map(values.__getitem__, s)) for s in states)
    label = f"F[{constraint_label(norm)}]({sys.label};m={m})"
    prov = {"kind": "fuzzy_lift", "m": m,
            "constraint": constraint_label(norm),
            "g": None if g is None else {str(k): str(v)
                                         for k, v in sorted(g.table.items())}}
    return _cut_lift(sys, points, cuts, table, label, prov)
