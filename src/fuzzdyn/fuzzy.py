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
import random
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from sys import maxsize
from typing import Callable, Sequence

from .analysis import Verdict
from .errors import BoundExceeded, InputError
from .hyperspace import CompactSet, _cut_lift, _mask_image
from . import spaces
from .spaces import (LiftTable, MetricSpace, Point, SystemMap, ZERO, ONE,
                     _check_states, _RenderedPoints, _rho, as_fraction,
                     point_label)

#: most levels of a grade grid; each height slice rebuilds O(m) grades
GRID_LEVEL_CAP = 1024


class LevelGrid:
    """The positive grade levels {1/m, ..., 1}; grades may also be 0."""

    __slots__ = ("m", "levels", "_levelset")

    def __init__(self, m: int):
        if m < 1:
            raise InputError("grid resolution must be >= 1")
        if m > GRID_LEVEL_CAP:
            raise BoundExceeded("grade grid", m, GRID_LEVEL_CAP)
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


def constraint_label(norm: tuple) -> str:
    if norm[0] == "all":
        return "all"
    if norm[0] == "nonempty":
        return "F0"
    op = "=" if norm[0] == "eq" else ">="
    return f"h{op}{norm[1]}"


def enumeration_cost(n_points: int, grid: LevelGrid, constraint=None) -> int:
    """States visited by the enumeration loop for this constraint."""
    return _slice(grid, normalize_constraint(constraint))[0] ** n_points


def enumerate_fuzzy(space: MetricSpace, grid: LevelGrid, constraint=None):
    """Every grade function satisfying the constraint, exactly once, in the
    state order of the fuzzy lift.

    The state cap applies to the states the loop visits (all (m+1)^|X| of
    them, except that a height-eq slice restricts to its own grade range).
    """
    n = len(space.points)
    radix, low = _slice(grid, normalize_constraint(constraint))
    _check_states("fuzzy lift", radix ** n)
    render = _renderer(n, radix, grid.with_zero())
    for code in _Codes(n, radix, low):
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


def _slice(grid: LevelGrid, norm: tuple) -> tuple[int, int]:
    """(radix, low) of the states under the normalized constraint: their
    points take the levels 0 .. radix-1, and their height is at least
    ``low``: 0 for every state, 1 for the nonempty ones, and a height
    slice's level (an eq slice has no level above it)."""
    if norm[0] in ("eq", "ge") and not grid.admits(norm[1]):
        raise InputError(f"constraint level {norm[1]} is not on the grid")
    low = {"all": 0, "nonempty": 1}.get(norm[0])
    if low is None:
        low = int(norm[1] * grid.m)
    return low + 1 if norm[0] == "eq" else grid.m + 1, low


class _Codes(Sequence):
    """The codes of the states on n points of height at least ``low`` over
    the levels 0 .. radix-1, ascending (see :func:`_slice`).  A digit DP
    reads the code of index i, and the index of a code (``index``), in
    O(n): after a digit at least ``low``, each of radix^L strings of L more
    digits completes a state, and before one, radix^L - low^L of them do.
    Iteration walks the codes, as every state is read."""

    __slots__ = ("n", "radix", "low", "_full", "_short")

    def __init__(self, n: int, radix: int, low: int):
        self.n, self.radix, self.low = n, radix, low
        # per place from the last: the completions after a digit at least
        # low, and after one below it with none at least low before
        self._full = [radix ** k for k in range(n)]
        self._short = [radix ** k - low ** k for k in range(n)]

    def __len__(self) -> int:
        return self.radix ** self.n - self.low ** self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]
        code, low, hit = 0, self.low, False
        for full, short in zip(reversed(self._full), reversed(self._short)):
            if hit:
                k, i = divmod(i, full)
            elif i < low * short:
                k, i = divmod(i, short)
            else:
                k, i = divmod(i - low * short, full)
                k += low
                hit = True
            code = code * self.radix + k
        return code

    def index(self, code: int) -> int:
        digits = []                 # the last point's level first
        for _ in range(self.n):
            code, k = divmod(code, self.radix)
            digits.append(k)
        i, low, hit = 0, self.low, False
        for k, full, short in zip(reversed(digits), reversed(self._full),
                                  reversed(self._short)):
            if hit:
                i += k * full
            else:
                i += min(k, low) * short + max(k - low, 0) * full
                hit = k >= low
        if code or not hit:
            raise ValueError("not the code of a state")
        return i

    def __iter__(self):
        return itertools.compress(range(self.radix ** self.n), map(
            self.low.__le__, _code_heights(self.n, self.radix)))


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


def _cut_columns(n: int, radix: int, m: int) -> list[list[int]]:
    """The cut masks of every code on n points over the levels 0 ..
    radix-1, one column per level 1/m .. 1: column k - 1 holds, by code,
    the mask of the points whose level is at least k (none when k is at
    least radix).  Each column grows one point at a time, most significant
    first, as the codes do."""
    cols = []
    for k in range(1, m + 1):
        col = [0]
        for bit in range(n):
            digits = [0] * min(k, radix) + [1 << bit] * (radix - k)
            col = [c | d for c in col for d in digits]
        cols.append(col)
    return cols


def fuzzy_lift_system(sys: SystemMap, grid: LevelGrid,
                      constraint=None) -> SystemMap:
    """Zadeh's extension on the enumerated fuzzy states, as a SystemMap.

    A state reads as its tuple of grades, and the metric is the levelwise
    distance of the shared lift kernel, read from each state's cut bitmasks.
    Zadeh's extension of a total map keeps every height, so every
    constraint is closed under it.

    Internally a state is its code: a ``range`` of codes holds every state
    or the nonempty ones, and a :class:`_Codes` sequence a height slice.
    ``space.points`` renders a code into its tuple of grades only when
    read.  The table is a :class:`LiftTable` over the column kernel
    :func:`_code_steps`, whose whole table is built within the state cap on
    the radix^n codes it steps.  The states are indexable while radix^n is
    at most ``sys.maxsize``.  A distance read renders the cut masks of its
    two codes, in O(n) each; a scan reads every state's masks from the cut
    columns of every code, within the state cap too (:func:`_cut_columns`).
    The lift takes the base's eventual period (see :func:`_cut_lift`).
    """
    norm = normalize_constraint(constraint)
    n = len(sys.space.points)
    m = grid.m
    radix, low = _slice(grid, norm)
    total = radix ** n
    if total > maxsize:
        raise BoundExceeded("fuzzy lift", total, maxsize)
    codes = range(low, total) if low <= 1 else _Codes(n, radix, low)
    table = LiftTable(sys, codes, lambda base, at: _code_steps(
        n, radix, base.preimages(), range(radix), at), "fuzzy lift", total,
        radix - low)
    level = {v: k for k, v in enumerate(grid.with_zero()[:radix])}

    def encode(grades: tuple) -> int:
        if not isinstance(grades, tuple) or len(grades) != n:
            raise ValueError("a fuzzy state is a tuple of grades")
        return _code(map(level.__getitem__, grades), radix)

    points = _RenderedPoints(codes, _renderer(n, radix, grid.with_zero()),
                             encode)
    levels = _renderer(n, radix, range(radix))
    label = f"F[{constraint_label(norm)}]({sys.label};m={m})"
    prov = {"kind": "fuzzy_lift", "m": m,
            "constraint": constraint_label(norm)}
    return _cut_lift(points, table, lambda c: _cut_masks(levels(c), m),
                     partial(_cut_columns, n, radix, m), label, prov)


# -- the level-wise lemmas --------------------------------------------------

#: the states the cut lemma samples above the cap, and their seed
_CUT_SAMPLE, _CUT_SEED = 256, 11

#: the cut lemma checks the iterates n = 1 .. _CUT_STEPS
_CUT_STEPS = 6


def heights_preserved(sys: SystemMap, grid: LevelGrid, f0: SystemMap
                      ) -> Verdict:
    """Height-preservation lemma on ``f0``, the F0 lift of ``sys``: Zadeh's
    extension of a total map keeps every height, and states of heights
    h1 < h2 are a diameter apart (their cuts at h2 differ in emptiness), so
    distinct heights stay a diameter apart iff the F0 lift table keeps
    heights (its one missing state, the empty one, is fixed).  A changed
    height is a kernel bug, raised as ``RuntimeError``.  The witness counts
    the (pair, step) reads of a scan of every distinct-height pair of all S
    states, the empty one included, over T^0 .. T^(pre+per): (C(S,2) -
    sum_h C(S_h,2)) times the steps."""
    pre, per = sys.eventual_period()
    bound = pre + per + 1
    # the whole table checks the lift's bound before the heights are built
    table = f0.whole_table()
    # the heights of every code, the empty one too; F0 state i is code i + 1
    heights = _code_heights(len(sys.space.points), grid.m + 1)
    moved = next((i for i, t in enumerate(table)
                  if heights[t + 1] != heights[i + 1]), None)
    if moved is not None:
        raise RuntimeError(f"lift kernel bug: state "
                           f"{point_label(f0.space.points[moved])} "
                           f"changes height under Zadeh's extension")
    pairs = math.comb(len(heights), 2) - sum(
        math.comb(k, 2) for k in Counter(heights).values())
    return Verdict("holds", True, horizon=bound,
                   witnesses=(("pairs_times_checked", pairs * bound),),
                   note="height-preservation lemma")


class _ImageMemo(dict):
    """T^n(mask) per cut mask, for one n, filled on first use."""

    def __init__(self, point_bits: list[int]):
        self.point_bits = point_bits

    def __missing__(self, mask: int) -> int:
        image = self[mask] = _mask_image(mask, self.point_bits)
        return image


def cuts_commute(sys: SystemMap, grid: LevelGrid, g: GFunction | None = None
                 ) -> Verdict:
    """Cuts of the g-iterates are images of cuts moved by the level
    transfer: [G^n(a)]_alpha = T^n([a]_{xi^n(alpha)}) for n = 1 ..
    ``_CUT_STEPS``, on state codes and cut bitmasks, exactly on all states
    within the state cap and else on a fixed sample.  The count and the first
    mismatch are those of a scan state by state in code order, each state
    step by step.

    The left side steps every state at once with the code kernel: one index
    table of all states, or the sampled batch.  The right side reads
    T^n(mask) from a memo.  Each step compares every level's whole column
    of masks at once and scans state by state only when two columns differ;
    from then on only the states before that first mismatch are stepped,
    since no later state can come first.  Only one step is held at a time,
    and stepping stops at the fold max(pre) + lcm(per) of T, g and xi:
    G^n(a)(x) is the max of g^n(a(y)) over the y with T^n(y) = x, so from
    the fold on every comparison repeats the one at n - lcm(per) >=
    max(pre), and the one at n = 0 holds.  So the first mismatch, if any,
    is before the fold, and the count over every step follows.  That
    holds for a wrong lift table too: a state's orbit leaves the true one
    at the first state it steps wrongly, which the true orbit reaches
    within the fold, and the mismatch shows at the next step."""
    m = grid.m
    radix = m + 1
    values = grid.with_zero()
    g = g if g is not None else GFunction.identity(grid)
    gint = _g_levels(grid, g)
    n_max = _CUT_STEPS
    n_pts = len(sys.space.points)
    every = radix ** n_pts <= spaces.STATE_CAP
    if every:
        # an "all" code is its own state index
        codes = range(radix ** n_pts)
        step = _code_steps(n_pts, radix, sys.preimages(), gint)
        all_cuts = _cut_columns(n_pts, radix, m)

        def columns(at: list[int]) -> list[list[int]]:
            return [list(map(col.__getitem__, at)) for col in all_cuts]
        advance = partial(map, step.__getitem__)
        note = "all states"
    else:
        rng = random.Random(_CUT_SEED)
        levels = range(m + 1)
        codes = [_code([rng.choice(levels) for _ in range(n_pts)], radix)
                 for _ in range(_CUT_SAMPLE)]
        render = _renderer(n_pts, radix, levels)

        def columns(at: list[int]) -> list[list[int]]:
            return list(map(list, zip(*(_cut_masks(render(c), m)
                                        for c in at))))
        advance = partial(_code_steps, n_pts, radix, sys.preimages(), gint)
        note = f"{_CUT_SAMPLE} sampled states (seed {_CUT_SEED})"
    level_of = {v: k for k, v in enumerate(values)}
    xi = xi_of(g)
    xint = [level_of[xi[v]] for v in values]  # xi on the integer levels
    folds = [sys.eventual_period(), _rho(gint), _rho(xint)]
    last = min(n_max, max(f[0] for f in folds)
               + math.lcm(*(f[1] for f in folds)))
    at = codes            # G^n of every state before the first mismatch
    cuts = columns(at)    # their cut masks, one column per level
    transfer = xint       # xi^n on the integer levels
    moved = sys.table     # T^n
    first = None          # (state, n, level index) of the first mismatch
    for n in range(1, last + 1):
        if n > 1:
            transfer = [xint[k] for k in transfer]
            moved = [sys.table[t] for t in moved]
        at = list(advance(at))
        images = _ImageMemo([1 << t for t in moved])
        # level k at time n: [G^n(a)]_k against T^n([a]_{xi^n(k)}), and
        # the cut at level xi^n(k) is in column xi^n(k) - 1
        lhs = columns(at)
        rhs = [list(map(images.__getitem__, cuts[t - 1]))
               for t in transfer[1:]]
        if lhs == rhs:
            continue
        i = next(i for i, row in enumerate(zip(*lhs, *rhs))
                 if row[:m] != row[m:])
        k = next(k for k in range(m) if lhs[k][i] != rhs[k][i])
        first = (i, n, k)
        if not i:
            break
        at, cuts = at[:i], [col[:i] for col in cuts]
    wit = (("equalities_checked", len(codes) * m * n_max),)
    if first:
        i, n, k = first
        wit = (("equalities_checked", (i * n_max + n - 1) * m + k + 1),)
        fuzzy = FuzzySet(sys.space, grid,
                         _renderer(n_pts, radix, values)(codes[i]))
        wit += (("mismatch", (repr(fuzzy), n, str(values[k + 1]))),)
    return Verdict("fails" if first else "holds", every, horizon=n_max,
                   witnesses=wit, note=note)
