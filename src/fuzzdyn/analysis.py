"""Return-time sets and dynamical property checkers.

Every checker returns a :class:`Verdict` that records whether its
quantifiers were exhausted.  The checkers read an oracle of
:mod:`fuzzdyn.oracles` through its contract, never by its type.  Every
oracle has a clock, after which its return-time sets repeat, so every "for
all n" quantifier is finite and each scan reads to the clock (``_clock``).
The open-set quantifier is exhausted only where the default basis exhausts
the opens (a table's singletons, not a shift's bounded cylinders), and
``exact`` says so.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import BoundExceeded, InputError
from .families import FamilyClassifier, IndexSet, _extend
from .oracles import ProductDyn, TableDyn, _BoxBasis, _count, as_dyn
from .spaces import (Point, SystemMap, _check_states, _scaled_matrix,
                     as_fraction, point_label)


# -- verdicts --------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of a checker run.

    ``exact`` is True only when every quantifier was exhausted (the scan
    reached the clock over a basis that exhausts the opens).  A failing
    verdict always carries a replayable counterexample.
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


# -- return-time sets --------------------------------------------------------

def return_time_set(target, u, v, horizon: int | None = None) -> IndexSet:
    """N(U, V) = {n : T^n(U) meets V}, materialized up to the horizon.

    The horizon defaults to preperiod + 2*period of the oracle's clock,
    which exhibits the full eventually periodic structure; the set below
    the clock is extended periodically, exact on every backend.
    """
    dyn = as_dyn(target)
    u, v = dyn.as_open(u), dyn.as_open(v)
    pre, per = dyn.preperiod_period()
    if horizon is None:
        horizon = pre + 2 * per
    return IndexSet.from_bits(horizon, _extend(dyn.return_times(u, v), pre,
                                               per, horizon))


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

def _clock(dyn, extra: int = 0) -> tuple[int, bool]:
    """(scan bound, exact?) of a scan over the times n below the bound, the
    one rule behind every ``exact`` flag.  On an oracle of clock (pre, per)
    a scan below pre + per + extra exhausts the times, since later times
    repeat earlier ones; ``extra`` is 1 for a curve read up to pre + per
    inclusive.  The verdict is exact when the oracle's default basis
    exhausts its opens too (``exact_basis``).  A clock of more than
    ``spaces.STATE_CAP`` times raises ``BoundExceeded`` ("clock") before
    any scan or curve walks it."""
    pre, per = dyn.preperiod_period()
    _check_states("clock", pre + per)
    return pre + per + extra, dyn.exact_basis


#: the note of a holding verdict whose basis does not exhaust the opens
_BOUNDED_BASIS = "bounded basis evidence"


#: the first and the longest chunk of a row that a scan reads at once
_FIRST_CHUNK, _CHUNK_CAP = 8, 1024


def _scan(dyn, basis, fails):
    """(i, j0, chunk) through every row of the scan, one oracle row per
    source index i, in order: chunk lists N(basis[i], basis[j]) below the
    clock's pre + per for j = j0, j0 + 1, ...  Each row is read in chunks
    of 8, 16, 32, ... up to the cap, so a checker tests a chunk with list
    operations, a failure early in a row reads little past it, and no row
    is ever held whole.  An open is built only when a checker labels it.

    ``fails(sets)`` is the checker's one set test: does any of the sets
    fail.  Every checker stops at its first failing set.  A product's box
    pairs are the tuples of its factors' pairs, so the whole scan's set of
    sets is that of ``ProductDyn.box_values``.  Once the sets read reach
    the factors' pairs, sum |basis_k|^2 (at least 8 whenever they are fewer
    than the scan's sets), the value pass builds it, giving up past as many
    ANDs as sets read.  If no set of it fails, it is yielded as one chunk
    with no row index and the scan stops before its last pair, its verdict
    decided; otherwise the ordered scan goes on, so the checker still finds
    its first failing box.  The values are held only during the pass."""
    n = _count(basis)
    pass_at = total = n * n
    if isinstance(basis, _BoxBasis):
        pass_at = sum(_count(b) ** 2 for b in basis.bases)
    for i, row in enumerate(dyn.rows(basis)):
        sets = iter(row)
        j0, size = 0, _FIRST_CHUNK
        while chunk := list(itertools.islice(sets, size)):
            yield i, j0, chunk
            j0 += len(chunk)
            size = min(2 * size, _CHUNK_CAP)
            read = i * n + j0
            if pass_at <= read < total:
                pass_at = total             # the pass runs once
                values = dyn.box_values(basis, read)
                if values is not None and not fails(values):
                    yield None, 0, list(values)
                    return


def _empty(sets) -> bool:
    """Transitivity's set test: is one of the sets empty."""
    return 0 in sets


def _labels(basis, i: int, j: int) -> tuple[str, str]:
    return basis[i].label, basis[j].label


def _first(bits: int) -> int:
    """The least n whose bit is set in a nonzero bitset."""
    return (bits & -bits).bit_length() - 1


def is_transitive(target, basis=None) -> Verdict:
    """Every pair of basis opens communicates: N(U, V) is nonempty."""
    dyn = as_dyn(target)
    basis = dyn.checked_basis(basis)
    bound, exact = _clock(dyn)
    witnesses = []
    for i, j0, chunk in _scan(dyn, basis, _empty):
        if _empty(chunk):
            return Verdict("fails", exact, horizon=bound,
                           counterexample=_labels(basis, i,
                                                  j0 + chunk.index(0)),
                           note="orbit never meets the target ball")
        if len(witnesses) < 8:
            _witness(witnesses, basis, i, j0, chunk)
    return Verdict("holds", exact, horizon=bound, witnesses=tuple(witnesses))


def _witness(witnesses: list, basis, i: int, j0: int, chunk: list) -> None:
    """Extend the witnesses, up to 8, by (U, V, least n) of the chunk's
    nonempty sets."""
    for j, bits in enumerate(chunk[:8 - len(witnesses)], j0):
        witnesses.append(_labels(basis, i, j) + (_first(bits),))


def _square(dyn, basis) -> tuple:
    """The 2-fold product oracle and, for a caller's basis, its boxes, which
    the product checks; None stands for the product's default basis."""
    basis = None if basis is None else _BoxBasis((tuple(basis),) * 2)
    return ProductDyn([(dyn, 1), (dyn, 1)]), basis


def is_weakly_mixing(target, basis=None, method: str = "product") -> Verdict:
    """Transitivity of the 2-fold product, or the return-time overlap
    criterion N(U,U) meets N(U,V); the two must agree."""
    if method not in ("product", "lemma"):
        raise InputError("method must be 'product' or 'lemma'")
    dyn = as_dyn(target)
    if method == "product":
        v = is_transitive(*_square(dyn, basis))
        return replace(v, note="via 2-fold product")
    basis = dyn.checked_basis(basis)
    bound, exact = _clock(dyn)
    witnesses = []
    for i, row in enumerate(dyn.rows(basis)):
        row = list(row)
        both = list(map(row[i].__and__, row))   # N(U, U) & N(U, V)
        if 0 in both:
            return Verdict("fails", exact, horizon=bound,
                           counterexample=_labels(basis, i, both.index(0)),
                           note="N(U,U) and N(U,V) never overlap")
        _witness(witnesses, basis, i, 0, both)
    return Verdict("holds", exact, horizon=bound, witnesses=tuple(witnesses),
                   note="via return-time overlap")


def is_mixing(target, basis=None) -> Verdict:
    """Every N(U, V) is cofinite: every time from the preperiod of the
    clock on is a return time."""
    dyn = as_dyn(target)
    basis = dyn.checked_basis(basis)
    bound, exact = _clock(dyn)
    tail_bound = dyn.preperiod_period()[0]
    worst_tail = 0
    full = (1 << bound) - 1
    tail = functools.partial(_tail, full)

    def fails(sets) -> bool:
        return tail(sets) > tail_bound
    for i, j0, chunk in _scan(dyn, basis, fails):
        worst = tail(chunk)
        if worst > tail_bound:
            k = next(k for k, bits in enumerate(chunk) if fails((bits,)))
            missing = tail_bound + _first((full ^ chunk[k]) >> tail_bound)
            return Verdict("fails", exact, horizon=bound,
                           counterexample=_labels(basis, i, j0 + k)
                           + (missing,),
                           note="a full residue class of times is missing")
        worst_tail = max(worst_tail, worst)
    return Verdict("holds", exact, horizon=bound,
                   witnesses=(("tail_start", worst_tail),),
                   note="" if exact else _BOUNDED_BASIS)


def _tail(full: int, sets) -> int:
    """Where the latest tail of the sets, each below ``full``, starts: past
    the last missing time of any of them.  That is the bit length of the OR
    of their complements in ``full``, the complement of their AND."""
    return (full ^ functools.reduce(operator.and_, sets, full)).bit_length()


def is_F_transitive(target, family: FamilyClassifier, basis=None,
                    mixing: bool = False) -> Verdict:
    """Every N(U, V) belongs to the family.

    With ``mixing`` the check runs on the 2-fold product, over the boxes of
    the basis when one is given.  The clock (pre, per) decides every
    built-in family from the times of the first period (``families``).
    """
    dyn = as_dyn(target)
    if mixing:
        dyn, basis = _square(dyn, basis)
    basis = dyn.checked_basis(basis)
    window, exact = _clock(dyn)
    mask = family.mask(*dyn.preperiod_period())
    note = (f"N(U,V) not {family.kind} "
            f"({'exact' if exact else 'bounded basis'})")

    def passing(sets) -> int:
        """How many of the sets pass before the first that fails."""
        if family.full:
            oks = map(mask.__eq__, map(mask.__and__, sets))
        else:
            oks = map(mask.__and__, sets)
        return len(list(itertools.takewhile(bool, oks)))

    def fails(sets) -> bool:
        return passing(sets) < len(sets)
    for i, j0, chunk in _scan(dyn, basis, fails):
        k = passing(chunk)
        if k < len(chunk):
            return Verdict("fails", exact, horizon=window, note=note,
                           counterexample=_labels(basis, i, j0 + k))
    return Verdict("holds", exact, horizon=window,
                   witnesses=(("family", family.kind),),
                   note="" if exact else _BOUNDED_BASIS)


def is_a_transitive(target, exponents: Sequence[int]) -> Verdict:
    """Transitivity of the product advanced by the given exponent vector."""
    exps = tuple(exponents)
    if not exps or any(e < 1 for e in exps):
        raise InputError("exponent vector must be nonempty and positive")
    dyn = as_dyn(target)
    v = is_transitive(ProductDyn([(dyn, e) for e in exps]))
    return replace(v, note=f"exponents {exps}")


def weakly_disjoint(a, b) -> Verdict:
    """Transitivity of the heterogeneous product of the two systems."""
    v = is_transitive(ProductDyn([(as_dyn(a), 1), (as_dyn(b), 1)]))
    return replace(v, note="product transitivity")


#: the note of every mild-mixing verdict: the lemma that decides it (README)
_IP_STAR = "mild-mixing lemma: mildly mixing iff every N(U,V) is IP*"


def is_mildly_mixing(target) -> Verdict:
    """Weak disjointness from every transitive system.  By the mild-mixing
    lemma (README) it holds iff every N(U, V) is IP*, and an eventually
    periodic set is IP* iff it holds the multiple of its period in its
    first period, the mask of the ``ip`` family: one scan over the default
    basis decides it, exact wherever that basis exhausts the opens."""
    v = is_F_transitive(target, FamilyClassifier("ip"))
    return replace(v, note=_IP_STAR if v.exact or v.fails
                   else f"{_IP_STAR}; {_BOUNDED_BASIS}")


# -- metric behaviour ----------------------------------------------------------

#: cap on the pair-steps of a scan of every pair: of its N (N - 1) / 2
#: pairs of points, each stepped through at most T^0 .. T^(pre+per-1)
MODULUS_PAIR_STEP_CAP = 2 ** 24


def _check_pair_steps(what: str, work: int) -> None:
    """Raise the bound ``what`` when ``work`` pair-steps exceed the cap."""
    if work > MODULUS_PAIR_STEP_CAP:
        raise BoundExceeded(what, work, MODULUS_PAIR_STEP_CAP)


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
    stops at the first pair at the gap.  Above it the pair reads and the
    orbit steps taken count against ``MODULUS_PAIR_STEP_CAP``.  The verdict
    holds when delta is positive; its witnesses are ``eps``, ``delta`` and,
    for any violation found, the ``violator`` (x, y, n): the first pair in
    index order at delta and its first violating step.
    """
    if not isinstance(sys, SystemMap):
        raise InputError("equicontinuity needs a finite table system")
    eps = _positive_eps(eps)
    space = sys.space
    n_pts = len(space.points)
    # a distance reaches eps iff its scaled integer reaches this
    reach = -(-eps.numerator * space.denom // eps.denominator)
    gap = space.gap if space.gap is not None and space.gap >= reach else None
    pre, per = sys.eventual_period()
    # a lift's whole table is its bound: read it before any pair
    table = sys.whole_table()
    work = 0 if gap is not None else n_pts * (n_pts - 1) // 2
    _check_pair_steps("equicontinuity pair-steps", work)
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
            x, y = i, j
            for step in range(pre + per):
                if d(x, y) >= reach:
                    near = (d0, i, j, step)
                    break
                x, y = table[x], table[y]
            work += step
            _check_pair_steps("equicontinuity pair-steps", work)
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
    closer one violates iff its orbit reaches eps.  Each eps is attained by
    a pair, whose M is at least eps, so there is always such a pair.  The
    pass steps T one table at a time, keeping M for every pair, then keeps
    the least starting distance for each distinct M.  Past
    ``MODULUS_PAIR_STEP_CAP`` pair-steps it raises ``BoundExceeded``
    before it reads a distance.
    """
    _require_table(sys, "the equicontinuity modulus")
    pre, per = sys.eventual_period()
    n = len(sys.space.points)
    _check_pair_steps("modulus curve pair-steps",
                      n * (n - 1) // 2 * (pre + per))
    table = sys.whole_table()
    denom, mat = _scaled_matrix(sys.space)
    starts = [row[i + 1:] for i, row in enumerate(mat)]
    top = starts    # M(i, j) for j > i, one step at a time
    step = range(len(mat))      # T^n
    for _ in range(1, pre + per):
        step = list(map(table.__getitem__, step))
        top = [[a if a > b else b for a, b in
                zip(row, map(mat[step[i]].__getitem__,
                             itertools.islice(step, i + 1, None)))]
               for i, row in enumerate(top)]
    least: dict[int, int] = {}  # M -> least starting distance
    for row, highs in zip(starts, top):
        for d0, high in zip(row, highs):
            if least.get(high, d0 + 1) > d0:
                least[high] = d0
    out = []
    best = None         # the least d0 over the M >= eps
    tops = sorted(least)
    for eps in sorted({d0 for row in starts for d0 in row if d0 > 0},
                      reverse=True):
        while tops and tops[-1] >= eps:
            d0 = least[tops.pop()]
            best = d0 if best is None or d0 < best else best
        out.append((Fraction(eps, denom), Fraction(best, denom)))
    return out[::-1]


def displacement_curve(sys: SystemMap, horizon: int | None = None) -> list[Fraction]:
    """max over points of d(T^n(x), x), for n = 0 .. horizon-1.  Only
    T^0 .. T^(pre+per-1) are stepped: T^(n+per) = T^n for n >= pre, so
    later entries repeat the periodic part."""
    _require_table(sys, "displacement")
    pre, per = sys.eventual_period()
    bound = horizon if horizon is not None else pre + per + 1
    table = sys.whole_table()
    space = sys.space
    step = range(len(space.points))     # T^n, one table at a time
    curve = []
    for _ in range(min(bound, pre + per)):
        curve.append(Fraction(max(map(space.dist_int, step,
                                      range(len(step)))), space.denom))
        step = list(map(table.__getitem__, step))
    return curve + [curve[pre + (n - pre) % per]
                    for n in range(len(curve), bound)]


def is_uniformly_rigid(sys: SystemMap, eps) -> Verdict:
    """Some n >= 1 moves every point within eps of itself; the least such n
    is the ``witness_n`` (None when there is none).  The curve to n = pre +
    per decides it: later entries repeat entries from pre on (n = per
    repeats n = 0 when pre = 0)."""
    _require_table(sys, "uniform rigidity")
    eps = _positive_eps(eps)
    bound, exact = _clock(TableDyn(sys), extra=1)
    curve = displacement_curve(sys, bound)
    n = next((n for n in range(1, bound) if curve[n] < eps), None)
    return Verdict("holds" if n is not None else "fails", exact, horizon=bound,
                   witnesses=(("witness_n", n),), note=f"eps={eps}")


def diam_reaches_zero(sys: SystemMap) -> Verdict:
    """Some image T^n(X) is a single point.  The diameter curve is read to
    n = pre + per, like the rigidity curve; the witnesses are the least n
    where it is zero (None when there is none) and its last value."""
    _require_table(sys, "diameter decay")
    bound, exact = _clock(TableDyn(sys), extra=1)
    decay = diam_decay(sys, bound)
    n = next((n for n, v in enumerate(decay) if v == 0), None)
    return Verdict("holds" if n is not None else "fails", exact, horizon=bound,
                   witnesses=(("first_zero_at", n), ("final", str(decay[-1]))))


def is_proximal_pair(sys: SystemMap, x: Point, y: Point) -> Verdict:
    """Do the two orbits merge (liminf distance zero is merging on a
    finite space, since distinct points keep positive distance).  The scan
    to preperiod + period decides it."""
    _require_table(sys, "proximality")
    return _proximal_pair(sys, sys.space.index(x), sys.space.index(y))


def _proximal_pair(sys: SystemMap, i: int, j: int) -> Verdict:
    """``is_proximal_pair`` on point indices."""
    pre, _ = sys.eventual_period()
    bound, exact = _clock(TableDyn(sys))
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
    return Verdict("fails", exact, horizon=bound,
                   counterexample=(point_label(x), point_label(y), liminf),
                   note="orbits never merge; liminf distance shown")


def is_proximal(sys: SystemMap) -> Verdict:
    """All pairs proximal.  Two orbits of a finite system merge iff
    T^preperiod sends them to one state, so this holds iff T^preperiod(X)
    is a single state; otherwise the counterexample is point 0 and the
    first point whose T^preperiod image differs from that of point 0
    (``SystemMap.first_apart``, a lemma on a lift of Zadeh's extension)."""
    _require_table(sys, "proximality")
    j = sys.first_apart()
    if j is None:
        return Verdict("holds", True, note="all pairs merge")
    return Verdict("fails", True,
                   counterexample=_proximal_pair(sys, 0, j).counterexample,
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


def is_sensitive(sys: SystemMap, eps, basis=None) -> Verdict:
    """For every point and every basis neighborhood of it, some neighbor
    escapes to distance > eps at some time; T^0 .. T^(pre+per-1) decide
    it."""
    _require_table(sys, "sensitivity")
    eps = _positive_eps(eps)
    space = sys.space
    d = space.dist_int
    # a distance exceeds eps iff its scaled integer exceeds this
    floor = eps.numerator * space.denom // eps.denominator
    dyn = TableDyn(sys)
    basis = dyn.checked_basis(basis)
    bound, exact = _clock(dyn)
    table = sys.whole_table()

    def escapes(i: int, j: int) -> bool:
        for _ in range(bound):
            if d(i, j) > floor:
                return True
            i, j = table[i], table[j]
        return False
    for i, x in enumerate(space.points):
        for u in basis:
            members = u.indices
            if i in members and not any(escapes(i, j) for j in members):
                return Verdict("fails", exact, horizon=bound,
                               counterexample=(point_label(x), u.label),
                               note="no neighbor ever escapes past eps")
    return Verdict("holds", True, horizon=bound)


def is_periodically_dense(sys: SystemMap, basis=None) -> Verdict:
    """Every basis open contains a periodic point."""
    _require_table(sys, "periodic density")
    basis = TableDyn(sys).checked_basis(basis)
    periodic = _recurrent_indices(sys)
    for u in basis:
        if not (u.indices & periodic):
            return Verdict("fails", True, counterexample=(u.label,),
                           note="open without periodic points")
    return Verdict("holds", True)
