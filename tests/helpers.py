"""Independent brute-force oracles shared by the test modules.

These recompute everything from the definitions with plain Fraction loops,
deliberately avoiding the package's optimized integer-mask paths; optimized
and definitional routes are cross-checked against each other in the tests.
``image_points``, ``recurrent_points``, ``point_return_set``,
``orbit_points``, ``is_isometry``, ``apply``, ``ball``, ``surjective`` and
the ``catalog_*_upto`` fixtures are former package names that only tests
call; they stay thin edges over the package.  ``iterate_tables`` and
``distance_values`` are brute copies of former package routes, and
``dense_circle_space`` and ``dense_grid_space`` are the circle and grid
metrics as the dense tables the package once built.
``gfunction_to_jsonable`` writes the ``--g`` document that
``serialize.gfunction_from_jsonable`` reads.  ``fs_set`` is a former
package name too, now the finite-sums sets of the IP residue lemma tests.
``vertex_shifts`` draws the random shifts that the symbolic and product
tests share.  ``transitive_catalog`` and ``catalog_mildly_mixing`` are the
former package route of mild mixing, weak disjointness from a catalog.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from fuzzdyn.analysis import (Verdict, _recurrent_indices, return_time_set,
                              weakly_disjoint)
from fuzzdyn.catalog import base_catalog
from fuzzdyn.errors import InputError
from fuzzdyn.families import IndexSet
from fuzzdyn.fuzzy import FuzzySet, fuzzy_lift_system, xi_of, zadeh_apply
from fuzzdyn.hyperspace import CompactSet
from fuzzdyn.oracles import (ProductDyn, ProductOpen, TableDyn, _Oracle,
                             as_dyn)
from fuzzdyn.serialize import format_fraction
from fuzzdyn.spaces import (MetricSpace, SystemMap, as_fraction,
                            circle_space, iterate, make_rotation,
                            point_label, product_system)
from fuzzdyn.symbolic import ShiftSystem, full_shift


def gfunction_to_jsonable(g) -> dict:
    return {"m": g.grid.m,
            "table": {format_fraction(k): format_fraction(v)
                      for k, v in sorted(g.table.items())}}


def image_points(sys, pts):
    """T(A) for a set A of points."""
    idx = sys.space.index
    return frozenset(sys.space.points[sys.table[idx(p)]] for p in pts)


def recurrent_points(sys) -> CompactSet:
    """All points lying on cycles: the image of T^preperiod."""
    return CompactSet(sys.space, (sys.space.points[i]
                                  for i in _recurrent_indices(sys)))


def point_return_set(sys, x, v, horizon=None):
    """N(x, V) = {n : T^n(x) in V} for a finite table system."""
    return return_time_set(sys, [x], v, horizon)


def apply(sys, p):
    """T(p) for a point p."""
    return sys.space.points[sys.table[sys.space.index(p)]]


def ball(space, center, radius) -> frozenset:
    """Open ball {q : d(center, q) < radius}."""
    r = as_fraction(radius)
    i = space.index(center)
    return frozenset(q for j, q in enumerate(space.points)
                     if space.d_by_index(i, j) < r)


def surjective(sys) -> bool:
    return len(set(sys.table)) == len(sys.space.points)


def orbit_points(sys, p, steps):
    """[p, T(p), ..., T^steps(p)]."""
    i = sys.space.index(p)
    out = [sys.space.points[i]]
    for _ in range(steps):
        i = sys.table[i]
        out.append(sys.space.points[i])
    return out


def is_isometry(sys) -> bool:
    n = len(sys.space.points)
    d = sys.space.d_by_index
    t = sys.table
    return all(d(t[i], t[j]) == d(i, j)
               for i in range(n) for j in range(i + 1, n))


def iterate_tables(sys, upto):
    """Tables of T^0 .. T^(upto-1), T^0 even at upto below 1."""
    n = len(sys.space.points)
    table = sys.whole_table()
    out = [tuple(range(n))]
    while len(out) < upto:
        out.append(tuple(map(table.__getitem__, out[-1])))
    return out


def distance_values(space) -> tuple[Fraction, ...]:
    """Sorted distinct distances d(i, j), i < j, and 0, as Fractions."""
    n = len(space.points)
    return tuple(sorted({Fraction(0)} | {space.d_by_index(i, j)
                                         for i in range(n)
                                         for j in range(i + 1, n)}))


def least_positive(space):
    """The least positive distance d(i, j), i < j, None when there is
    none."""
    return next((v for v in distance_values(space) if v > 0), None)


def dense_circle_space(n):
    """Z_n with the circle metric min(|i-j|, n-|i-j|)/n as a Fraction
    table."""
    return MetricSpace(range(n), matrix=[[Fraction(min(abs(i - j),
                                                       n - abs(i - j)), n)
                                          for j in range(n)]
                                         for i in range(n)])


def dense_grid_space(m):
    """The grid {i/m : 0 <= i <= m} with |x - y| as a Fraction table."""
    pts = [Fraction(i, m) for i in range(m + 1)]
    return MetricSpace(pts, matrix=[[abs(x - y) for y in pts] for x in pts])


def catalog_upto(n_points: int) -> list[SystemMap]:
    return [s for s in base_catalog() if len(s.space.points) <= n_points]


def catalog_bijections_upto(n_points: int) -> list[SystemMap]:
    return [s for s in catalog_upto(n_points)
            if len(set(s.table)) == len(s.table) >= 2]


def catalog_isometries_upto(n_points: int) -> list[SystemMap]:
    return [s for s in catalog_upto(n_points) if is_isometry(s)]


def brute_directed(space, src, dst):
    return max(min(space.d(x, y) for y in dst) for x in src)


def brute_hausdorff(space, members_a, members_b):
    a, b = frozenset(members_a), frozenset(members_b)
    if not a and not b:
        return Fraction(0)
    if not a or not b:
        return space.diam
    return max(brute_directed(space, a, b), brute_directed(space, b, a))


def brute_levelwise(fuzzy_a, fuzzy_b):
    space = fuzzy_a.space
    best = Fraction(0)
    for level in fuzzy_a.grid.levels:
        cut_a = frozenset(p for p, g in zip(space.points, fuzzy_a.grades)
                          if g >= level)
        cut_b = frozenset(p for p, g in zip(space.points, fuzzy_b.grades)
                          if g >= level)
        best = max(best, brute_hausdorff(space, cut_a, cut_b))
    return best


def brute_fuzzy_step(sys, a, g=None):
    """New grade at x is the max of g(grade) over the preimage of x (0 if
    none), on Fraction grades; g = None is Zadeh's extension."""
    pre = sys.preimages()
    grades = a.grades
    tbl = {v: v for v in a.grid.with_zero()} if g is None else g.table
    out = [max((tbl[grades[j]] for j in pre[i]), default=Fraction(0))
           for i in range(len(grades))]
    return FuzzySet(a.space, a.grid, out)


def brute_fuzzy_states(n_points, grid, constraint=None):
    """The grade tuples satisfying a constraint, in ``itertools.product``
    order over the grades a slice uses (an eq slice uses none above its
    level): the state order of the fuzzy lift."""
    values = grid.with_zero()
    if constraint is None or constraint == "all":
        keep = lambda h: True
    elif constraint == "nonempty":
        keep = lambda h: h > 0
    else:
        kind, lam = constraint
        keep = (lambda h: h == lam) if kind == "eq" else (lambda h: h >= lam)
        if kind == "eq":
            values = tuple(v for v in values if v <= lam)
    return [s for s in itertools.product(values, repeat=n_points)
            if keep(max(s))]


def brute_lift_entries(sys, grid, constraint, indices):
    """Entries of the fuzzy lift's table, state by state: each state of
    ``brute_fuzzy_states`` is stepped by ``zadeh_apply``, the step is
    checked against ``brute_fuzzy_step``, and its image is looked up among
    the states."""
    states = brute_fuzzy_states(len(sys.space.points), grid, constraint)
    out = []
    for i in indices:
        a = FuzzySet(sys.space, grid, states[i])
        b = zadeh_apply(sys, a)
        assert b == brute_fuzzy_step(sys, a)
        out.append(states.index(b.grades))
    return out


def count_states(n_points, grid, norm):
    """Exact state count for a constraint, by inclusion-exclusion on height."""
    q = grid.m + 1
    if norm[0] == "all":
        return q ** n_points
    if norm[0] == "nonempty":
        return q ** n_points - 1
    lam_idx = int(norm[1] * grid.m)  # levels below lam, plus zero
    if norm[0] == "eq":
        return (lam_idx + 1) ** n_points - lam_idx ** n_points
    return q ** n_points - lam_idx ** n_points


def in_vietoris(members, opens):
    """Does the set lie in the Vietoris element of ``opens``: inside their
    union and meeting every one of them."""
    a = frozenset(members)
    return a <= frozenset().union(*opens) and all(a & o for o in opens)


def omega_limit(sys, x):
    """Points visited infinitely often by the orbit of x (its cycle part)."""
    seen = {}
    i = sys.space.index(x)
    seq = []
    while i not in seen:
        seen[i] = len(seq)
        seq.append(i)
        i = sys.table[i]
    return frozenset(sys.space.points[j] for j in seq[seen[i]:])


def brute_return_times(sys, u_points, v_points, horizon):
    """Stepwise image iteration, no period folding."""
    current = frozenset(u_points)
    v = frozenset(v_points)
    out = set()
    for n in range(horizon):
        if current & v:
            out.add(n)
        current = image_points(sys, current)
    return out


def brute_transitive(dyn) -> Verdict:
    """Singleton-basis transitivity of a table oracle or of a product of
    table oracles, by walking the orbit of every state: every state must
    reach every state within preperiod + period steps.  Product states are
    tuples of factor indices, visited in the order of the box basis; the
    first start whose orbit misses a state and the first state it misses
    are the counterexample."""
    product = isinstance(dyn, ProductDyn)
    factors = dyn.factors if product else ((dyn, 1),)
    assert all(isinstance(f, TableDyn) for f, _ in factors)
    tables = [iterate(f.sys, a).table for f, a in factors]
    pre, per = dyn.preperiod_period()
    steps = pre + per
    ranges = [range(len(t)) for t in tables]
    bases = [f.default_basis() for f, _ in factors]

    def ball(state: tuple) -> str:
        parts = tuple(b[i] for b, i in zip(bases, state))
        return (ProductOpen(parts) if product else parts[0]).label

    n_states = math.prod(map(len, ranges))
    for start in itertools.product(*ranges):
        reached = set()
        cur = start
        for _ in range(steps):
            reached.add(cur)
            cur = tuple(map(tuple.__getitem__, tables, cur))
        if len(reached) < n_states:
            missing = next(s for s in itertools.product(*ranges)
                           if s not in reached)
            return Verdict("fails", True, horizon=steps,
                           counterexample=(ball(start), ball(missing)),
                           note="orbit never meets the target ball")
    return Verdict("holds", True, horizon=steps)


#: the vertex shift on a 7-cycle at resolution 2: one periodic orbit of 7
#: points, weakly disjoint from every member of ``transitive_catalog()``
SEVEN_CYCLE_SFT = ShiftSystem("abcdefg", list(zip("abcdefg", "bcdefga")), 2)


def transitive_catalog() -> list:
    """The seven transitive systems that mild mixing was once decided
    against: the cycles of 2 to 6 points, the product of the 2- and 3-cycles
    and the full shift on 2 symbols (transitive, but not minimal)."""
    return [*(make_rotation(n, 1) for n in range(2, 7)),
            product_system([(make_rotation(2, 1), 1),
                            (make_rotation(3, 1), 1)]),
            full_shift(2, 3)]


def catalog_mildly_mixing(target) -> Verdict:
    """Mild mixing as weak disjointness from ``transitive_catalog()``, the
    route the package once took, kept as a brute cross-check of the IP*
    scan.  Where the basis exhausts the opens, the target is its own last
    opponent and the verdict is exact (finite-table lemma: a transitive
    table is one c-cycle, and X x X is transitive only for c = 1);
    elsewhere a hold is only catalog-relative.  A failing verdict names the
    opponent."""
    dyn = as_dyn(target)
    exact = dyn.exact_basis
    for member in transitive_catalog() + ([dyn] if exact else []):
        v = weakly_disjoint(dyn, member)
        if not v.holds:
            return Verdict("fails", v.exact, counterexample=(
                "the target itself" if member is dyn else member.label,))
    return Verdict("holds", exact)


class PairwiseProduct(_Oracle):
    """A product oracle read pair by pair: each box pair's return times come
    from ``ProductDyn.return_times``, one call per pair, for factors of any
    kind.  Its basis is the product's boxes as a tuple, so a scan builds no
    factor row and skips no box row."""

    def __init__(self, product: ProductDyn):
        self.product = product

    def default_basis(self) -> tuple:
        return tuple(self.product.default_basis())

    def as_open(self, x):
        return self.product.as_open(x)

    def preperiod_period(self):
        return self.product.preperiod_period()

    @property
    def exact_basis(self) -> bool:
        return self.product.exact_basis

    def return_times(self, u, v) -> int:
        return self.product.return_times(u, v)


def pairwise_first_failure(sys, basis, ok):
    """Pair by pair in scan order, row U by row U and V in basis order: the
    first pair of basis opens whose return times below pre + 2 * per, by
    ``brute_return_times``, fail ``ok(times, pre, per)``, as (label of U,
    label of V, times); None when every pair passes."""
    pre, per = sys.eventual_period()
    for u, v in itertools.product(basis, basis):
        times = brute_return_times(sys, u.members, v.members, pre + 2 * per)
        if not ok(times, pre, per):
            return u.label, v.label, times
    return None


def _periodic_part(times, pre, per):
    """Which times of the first period from the preperiod on are in the set."""
    return [n in times for n in range(pre, pre + per)]


def pairwise_transitive(sys, basis):
    """The counterexample of exact transitivity, pair by pair, or, when it
    holds, the first 8 witnesses (U, V, least return time)."""
    found = pairwise_first_failure(
        sys, basis,
        lambda times, pre, per: any(n < pre + per for n in times))
    if found is not None:
        return found[:2]
    pre, per = sys.eventual_period()
    pairs = itertools.islice(itertools.product(basis, basis), 8)
    return tuple((u.label, v.label,
                  min(brute_return_times(sys, u.members, v.members,
                                         pre + per)))
                 for u, v in pairs)


def pairwise_mixing(sys, basis):
    """The counterexample of exact mixing, pair by pair: the pair and the
    first time from the preperiod on that its return set misses."""
    found = pairwise_first_failure(
        sys, basis,
        lambda times, pre, per: all(_periodic_part(times, pre, per)))
    if found is None:
        return None
    u, v, times = found
    pre, per = sys.eventual_period()
    return u, v, next(n for n in range(pre, pre + per) if n not in times)


def pairwise_tail(sys, basis, full: bool):
    """The counterexample of an exact tail-kind check, pair by pair: a full
    periodic part for thick, a nonempty one for syndetic."""
    test = all if full else any
    found = pairwise_first_failure(
        sys, basis,
        lambda times, pre, per: test(_periodic_part(times, pre, per)))
    return None if found is None else found[:2]


def brute_proximal(sys) -> Verdict:
    """All pairs proximal, pair by pair in index order: the orbit of (x, y)
    in X x X is walked until a pair repeats.  The pair is proximal iff the
    walk meets the diagonal; otherwise its liminf distance is the least
    distance on the cycle of pairs, and it is the counterexample."""
    space = sys.space
    tbl = sys.table
    for i, j in itertools.combinations(range(len(space.points)), 2):
        seen = []
        pair = (i, j)
        while pair not in seen:
            seen.append(pair)
            pair = (tbl[pair[0]], tbl[pair[1]])
        if any(a == b for a, b in seen):
            continue
        liminf = min(space.d_by_index(a, b)
                     for a, b in seen[seen.index(pair):])
        return Verdict("fails", True,
                       counterexample=(point_label(space.points[i]),
                                       point_label(space.points[j]),
                                       str(liminf)),
                       note="non-proximal pair")
    return Verdict("holds", True, note="all pairs merge")


def shift_brute_member(shift, u, v, n):
    """Is there a legal word that starts with u and carries v at position
    n?  The words are grown one symbol at a time from the first, keeping
    only the last symbols of the legal prefixes so far, since a prefix's
    legal extensions depend on its last symbol alone; a position that u or
    v fixes admits only its symbol.  No power of the transition graph and
    no periodicity is used, and the cost is linear in n, where listing the
    legal words grows exponentially."""
    fixed = {}
    for start, word in ((0, u), (n, v)):
        for i, c in enumerate(word, start):
            if fixed.setdefault(i, c) != c:
                return False
    last = None         # the last symbols of the legal prefixes of length i
    for i in range(max(len(u), n + len(v))):
        options = shift.alphabet if last is None else {
            b for a in last for b in shift.alphabet if shift.follows(a, b)}
        last = {c for c in options if fixed.get(i, c) == c}
        if not last:
            return False
    return True


@st.composite
def vertex_shifts(draw):
    """A vertex shift of at most 4 symbols with no stranded vertex: each
    symbol gets a drawn successor and a drawn predecessor."""
    k = draw(st.integers(1, 4))
    syms = "abcd"[:k]
    pick = st.sampled_from(syms)
    edges = set(draw(st.lists(st.tuples(pick, pick), max_size=10)))
    edges |= {(a, draw(pick)) for a in syms}
    edges |= {(draw(pick), b) for b in syms}
    return ShiftSystem(syms, sorted(edges),
                       draw(st.integers(1, 3 if k < 4 else 2)))


def brute_metric_violations(space):
    """Every metric axiom checked on Fraction distances, one message per
    violation, in the order pairs and triples are visited."""
    return _axiom_violations([point_label(p) for p in space.points],
                             space.d_by_index)


def _axiom_violations(lab, d):
    n = len(lab)
    out = [f"d({lab[i]},{lab[i]}) = {d(i, i)} != 0"
           for i in range(n) if d(i, i) != 0]
    for i in range(n):
        for j in range(i + 1, n):
            if d(i, j) != d(j, i):
                out.append(f"asymmetry at ({lab[i]},{lab[j]})")
            if d(i, j) <= 0:
                out.append(f"d({lab[i]},{lab[j]}) = {d(i, j)} not positive")
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j not in (i, k) and d(i, k) > d(i, j) + d(j, k):
                    out.append(
                        f"triangle violation: d({lab[i]},{lab[k]}) > "
                        f"d({lab[i]},{lab[j]}) + d({lab[j]},{lab[k]})")
    return out


def brute_finite_space(points, dist) -> dict:
    """The distance table of a ``finite`` document coerced entry by entry
    with Fraction: its common denominator ``denom``, the ``table`` scaled
    to integers over it, the least distance ``gap`` between distinct points
    (None unless the table is symmetric with zero diagonal), the diameter
    ``diam`` and the axiom ``violations``."""
    rows = [[Fraction(v) for v in row] for row in dist]
    n = len(points)
    denom = math.lcm(*(v.denominator for row in rows for v in row))
    off = [rows[i][j] for i in range(n) for j in range(n) if i != j]
    symmetric = all(rows[i][j] == rows[j][i] for i in range(n)
                    for j in range(n))
    zero_diagonal = all(rows[i][i] == 0 for i in range(n))
    return {"denom": denom,
            "table": [[int(v * denom) for v in row] for row in rows],
            "gap": int(min(off) * denom) if off and symmetric and
            zero_diagonal else None,
            "diam": max(off, default=Fraction(0)),
            "violations": _axiom_violations(
                [point_label(p) for p in points],
                lambda i, j: rows[i][j])}


def random_table_system(rng, n_points, label="random"):
    table = [rng.randrange(n_points) for _ in range(n_points)]
    return SystemMap(circle_space(n_points), table, label=label)


def taxi_space(coords, label="taxi"):
    """Exact metric from rational plane coordinates with the L1 distance;
    the triangle inequality is inherited, so this generates valid tables."""
    pts = list(range(len(coords)))
    rows = [[abs(ax - bx) + abs(ay - by) for bx, by in coords]
            for ax, ay in coords]
    return MetricSpace(pts, matrix=rows, label=label)


def brute_product_distance(spaces, p, q):
    """The max metric of a product, coordinate by coordinate."""
    return max(space.d(a, b) for space, a, b in zip(spaces, p, q))


def brute_equicontinuity_modulus(sys: SystemMap, eps) -> Verdict:
    """The pair scan that ``equicontinuity_modulus`` replaced, kept verbatim:
    every pair, every step up to pre + per, Fraction distances.

    Largest distance-value delta so that pairs within delta stay within
    eps under every iterate.

    On a finite space the candidates are the positive distance values; the
    modulus is the smallest starting distance of an eps-violating pair (all
    strictly closer pairs are safe), or the diameter when nothing violates.
    The verdict holds when delta is positive; its witnesses are ``eps``,
    ``delta`` and, for any violation found, the ``violator`` (x, y, n).
    """
    if not isinstance(sys, SystemMap):
        raise InputError("equicontinuity needs a finite table system")
    eps = as_fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    space = sys.space
    n_pts = len(space.points)
    pre, per = sys.eventual_period()
    tables = iterate_tables(sys, pre + per)
    delta = None
    violator = None
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            d0 = space.d_by_index(i, j)
            for step, tbl in enumerate(tables):
                if space.d_by_index(tbl[i], tbl[j]) >= eps:
                    if delta is None or d0 < delta:
                        delta = d0
                        violator = (point_label(space.points[i]),
                                    point_label(space.points[j]), step)
                    break
    if delta is None:
        delta = space.diam if n_pts > 1 else eps
    wit = (("eps", str(eps)), ("delta", str(delta)))
    if violator:
        wit += (("violator", violator),)
    return Verdict("holds" if delta > 0 else "fails", True,
                   horizon=pre + per, witnesses=wit)


def brute_eventual_period(table):
    """The table hashing that ``SystemMap.eventual_period`` replaced, kept
    verbatim: (pre, per, T^pre), stepping whole iterate tables until one
    repeats."""
    seen = {}
    cur = tuple(range(len(table)))
    step = 0
    while cur not in seen:
        seen[cur] = step
        cur = tuple(map(table.__getitem__, cur))
        step += 1
    first = seen[cur]
    return first, step - first, cur


def brute_cut_lemma(sys, grid, g, horizon, step, states=None):
    """The cut-lemma scan before it stopped at the fold: state by state in
    the order of ``states`` (by default every grade tuple, in product
    order), each at every step 1 .. horizon, on Fraction grades.  ``step``
    maps a grade tuple to the grade tuple of its image (the left side); the
    right side is T^n of the cut at xi^n(alpha).  Returns (equalities
    checked, the first mismatch (state repr, n, alpha) or None)."""
    if states is None:
        states = brute_fuzzy_states(len(sys.space.points), grid)
    m = grid.m
    # T^n and xi^n of each level depend on n alone
    powers = [iterate(sys, n) for n in range(horizon + 1)]
    xi = xi_of(g)
    levels = [list(grid.levels)]
    while len(levels) <= horizon:
        levels.append([xi[lv] for lv in levels[-1]])
    checked = 0
    for a in states:
        fuzzy = FuzzySet(sys.space, grid, a)
        cur = a
        for n in range(1, horizon + 1):
            cur = step(cur)
            moved = powers[n]
            for k, alpha in enumerate(grid.levels):
                lhs = frozenset(p for p, v in zip(sys.space.points, cur)
                                if v >= alpha)
                level = levels[n][k]
                cut = [p for p, v in zip(sys.space.points, a) if v >= level]
                if lhs != image_points(moved, cut):
                    return checked + k + 1, (repr(fuzzy), n, str(alpha))
            checked += m
    return checked, None


def brute_height_obstruction(sys: SystemMap, grid, bound: int):
    """The pair scan that the height-preservation lemma replaced, kept
    verbatim: every pair of states of distinct heights in the "all" lift,
    at every step below ``bound``, must stay a diameter apart.  Returns the
    status and the number of (pair, step) distances read."""
    lift = fuzzy_lift_system(sys, grid, "all")
    space = lift.space
    heights = [max(s) for s in space.points]
    d = space.scan_metric()
    diam = int(space.diam * space.denom)
    tables = iterate_tables(lift, bound)
    checked = 0
    for i in range(len(heights)):
        for j in range(i + 1, len(heights)):
            if heights[i] == heights[j]:
                continue
            for tbl in tables:
                checked += 1
                if d(tbl[i], tbl[j]) != diam:
                    return "fails", checked
    return "holds", checked


def brute_subset_displacement(sys: SystemMap, horizon: int) -> list[Fraction]:
    """max over nonempty subsets A of d_H(T^n(A), A), for n = 0 ..
    horizon-1: the scan over all 2^|X| - 1 subsets that the singleton
    lemma replaced, each subset stepped by ``image_points`` and measured by
    ``brute_hausdorff``."""
    pts = sys.space.points
    subsets = [frozenset(c) for r in range(1, len(pts) + 1)
               for c in itertools.combinations(pts, r)]
    images = list(subsets)
    worst = {}                  # the subsets' images repeat past pre + per
    out = []
    for _ in range(horizon):
        key = tuple(images)
        if key not in worst:
            worst[key] = max(brute_hausdorff(sys.space, img, a)
                             for img, a in zip(images, subsets))
        out.append(worst[key])
        images = [image_points(sys, img) for img in images]
    return out


def fs_set(generators, horizon: int):
    """FS(x), every sum of a nonempty set of distinct generators, below the
    horizon, as an ``IndexSet``: the finite-sums sets of the IP residue
    lemma, summed subset by subset."""
    gens = list(generators)
    if not gens:
        raise InputError("fs_set needs at least one generator")
    if any((not isinstance(g, int)) or g < 1 for g in gens):
        raise InputError("generators must be positive integers")
    sums = {sum(c) for r in range(1, len(gens) + 1)
            for c in itertools.combinations(gens, r)}
    return IndexSet.of(horizon, {n for n in sums if n < horizon})


def periodic_member(bits: int, pre: int, per: int, n: int) -> bool:
    """Is n in the set periodic from ``pre`` with period ``per`` whose
    members below pre + per are the set bits of ``bits``."""
    if n >= pre + per:
        n = pre + (n - pre) % per
    return bool(bits >> n & 1)


def brute_family_results(bits: int, pre: int, per: int) -> dict:
    """Each tail family's verdict on a periodic set, by its definition read
    member by member over four periods from the preperiod on: infinite,
    some member in the last of them; syndetic, no run of non-members as
    long as a period; cofinite, every time; thick, a run of members longer
    than a period."""
    window = range(pre, pre + 4 * per)
    inside = [periodic_member(bits, pre, per, n) for n in window]

    def longest(value: bool) -> int:
        longest = run = 0
        for x in inside:
            run = run + 1 if x == value else 0
            longest = max(longest, run)
        return longest
    return {"infinite": any(inside[-per:]),
            "syndetic": longest(False) < per,
            "cofinite": all(inside),
            "thick": longest(True) > per}


def brute_ip_search(bits: int, pre: int, per: int) -> bool:
    """Is there an FS set of p(p - 1) + 1 generators, each at least
    max(q, 1), inside the set periodic from q = ``pre`` with period p =
    ``per``?  Every finite sum of such generators is at least q, so it is a
    member iff its residue mod p is that of a member in [q, q + p): the
    search runs depth first over the multisets of residues of the
    generators, in nondecreasing order, following the residues of their
    finite sums, and drops a multiset once one of its sums leaves the
    set."""
    members = {n % per for n in range(pre, pre + per)
               if periodic_member(bits, pre, per, n)}

    @functools.cache
    def extend(start: int, sums: frozenset, left: int) -> bool:
        if not left:
            return True
        for r in range(start, per):
            more = sums | {r} | {(s + r) % per for s in sums}
            if more <= members and extend(r, more, left - 1):
                return True
        return False
    return extend(0, frozenset(), per * (per - 1) + 1)
