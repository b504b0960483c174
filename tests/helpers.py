"""Independent brute-force oracles shared by the test modules.

These recompute everything from the definitions with plain Fraction loops,
deliberately avoiding the package's optimized integer-mask paths; optimized
and definitional routes are cross-checked against each other in the tests.
``image_points``, ``recurrent_points`` and ``point_return_set`` are former
package names that only tests call; they stay thin edges over the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from fuzzdyn.analysis import (ProductDyn, ProductOpen, TableDyn, Verdict,
                              _recurrent_indices, open_label, return_time_set)
from fuzzdyn.errors import InputError
from fuzzdyn.fuzzy import FuzzySet, fuzzy_lift_system, xi_iterate
from fuzzdyn.hyperspace import (CompactSet, _mask_hausdorff, _mask_image,
                                _min_to_mask_table)
from fuzzdyn.spaces import (MetricSpace, SystemMap, _scaled_matrix,
                            as_fraction, circle_space, iterate,
                            iterate_tables, point_label)


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
        return open_label(ProductOpen(parts) if product else parts[0])

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
    """Enumerate every legal word long enough to carry both constraints."""
    length = max(len(u), n + len(v))
    for w in shift.legal_words(length):
        if w.startswith(u) and w[n:n + len(v)] == v:
            return True
    return False


def brute_metric_violations(space):
    """Every metric axiom checked on Fraction distances, one message per
    violation, in the order pairs and triples are visited."""
    n = len(space.points)
    lab = [point_label(p) for p in space.points]
    d = space.d_by_index
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


def brute_cut_lemma(sys, grid, g, horizon, table):
    """The cut-lemma scan before it stopped at the fold: state by state in
    product order, each at every step 1 .. horizon, on Fraction grades.
    ``table`` steps the states of the "all" lift (the left side); the right
    side is T^n of the cut at xi^n(alpha).  Returns (equalities checked,
    the first mismatch (state repr, n, alpha) or None)."""
    states = brute_fuzzy_states(len(sys.space.points), grid)
    m = grid.m
    checked = 0
    for i, a in enumerate(states):
        fuzzy = FuzzySet(sys.space, grid, a)
        cur = i
        for n in range(1, horizon + 1):
            cur = table[cur]
            moved = iterate(sys, n)
            for k, alpha in enumerate(grid.levels):
                lhs = frozenset(p for p, v in zip(sys.space.points,
                                                  states[cur]) if v >= alpha)
                level = xi_iterate(g, n, alpha)
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
    horizon-1: the bitmask scan over all 2^|X| - 1 subsets that the
    singleton lemma replaced, kept verbatim as the reference for it."""
    n = len(sys.space.points)
    denom, mat = _scaled_matrix(sys.space)
    mind = _min_to_mask_table(n, mat)
    out = []
    for tbl in iterate_tables(sys, horizon):
        point_bit = [1 << t for t in tbl]
        worst = max(_mask_hausdorff(_mask_image(mask, point_bit), mask, mind)
                    for mask in range(1, 1 << n))
        out.append(Fraction(worst, denom))
    return out


def brute_family_results(members, horizon, threshold):
    """(syndetic, thick, cofinite, infinite) results of a set, scanned n by
    n through its members; ``threshold`` is shared as the gap, run, tail and
    window bound, None for each classifier's default."""
    def longest_run(inside):
        longest = run = 0
        for n in range(horizon):
            run = run + 1 if (n in members) == inside else 0
            longest = max(longest, run)
        return longest

    window = threshold if threshold is not None else max(1, horizon // 4)
    tail = threshold if threshold is not None else horizon // 2
    seq = [-1] + sorted(members) + [horizon - 1]
    gap = max(b - a for a, b in zip(seq, seq[1:])) if members else horizon
    t = next((n + 1 for n in range(horizon - 1, -1, -1)
              if n not in members), 0)
    count = len([n for n in members if n >= tail])
    return ((longest_run(False) + 1 <= window, gap),
            (longest_run(True) >= window, longest_run(True)),
            (t <= tail, t),
            (count > 0, count))
