"""Acceptance suite: one test per release criterion, each printing a
PASS line and pinning its stated runtime budget where one applies.

Every equality here is exact rational equality; nothing is approximate.
"""

import itertools
import random
import time
from fractions import Fraction

from fuzzdyn.analysis import is_proximal, is_transitive, is_weakly_mixing
from fuzzdyn.catalog import base_catalog
from fuzzdyn.families import FamilyClassifier
from fuzzdyn.fuzzy import (LevelGrid, fuzzy_lift_system, g_fuzzify_apply,
                           xi_of, alpha_cut, FuzzySet, GFunction)
from fuzzdyn.hyperspace import enumerate_compacts, hausdorff_distance, \
    lift_system
from fuzzdyn.oracles import ShiftDyn
from fuzzdyn.spaces import (SystemMap, circle_space, make_grid_interval_map,
                            make_rotation, make_multiply, one_point_system,
                            validate_metric)
from fuzzdyn.symbolic import full_shift
from fuzzdyn.theorems import verify_theorem
from helpers import (apply, brute_ip_search, catalog_bijections_upto,
                     catalog_isometries_upto, catalog_upto, fs_set,
                     iterate_tables, periodic_member, random_table_system,
                     taxi_space)

F = Fraction
HALF = F(1, 2)
ONE = F(1)


def _indicator_state(space, lam, members):
    return tuple(lam if p in members else F(0) for p in space.points)


def test_criterion_01_conjugacy_identity():
    """Iterated indicator states keep exactly the subset-lift distances."""
    start = time.monotonic()
    grid = LevelGrid(2)
    pairs_checked = 0
    for sys in catalog_upto(5):
        pre, per = sys.eventual_period()
        steps = pre + per + 1
        klift = lift_system(sys)
        k_index = {p: i for i, p in enumerate(klift.space.points)}
        k_tables = iterate_tables(klift, steps)
        for lam in (HALF, ONE):
            flift = fuzzy_lift_system(sys, grid, ("eq", lam))
            f_index = {p: i for i, p in enumerate(flift.space.points)}
            f_tables = iterate_tables(flift, steps)
            subsets = klift.space.points
            for a, b in itertools.combinations_with_replacement(subsets, 2):
                ka, kb = k_index[a], k_index[b]
                fa = f_index[_indicator_state(sys.space, lam, a)]
                fb = f_index[_indicator_state(sys.space, lam, b)]
                for kt, ft in zip(k_tables, f_tables):
                    lhs = klift.space.d_by_index(kt[ka], kt[kb])
                    rhs = flift.space.d_by_index(ft[fa], ft[fb])
                    assert lhs == rhs, (sys.label, lam, a, b)
                    pairs_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    print(f"\nCRITERION-01 conjugacy identity PASS "
          f"({pairs_checked} equalities, {elapsed:.1f}s)")


def test_criterion_02_cut_commutation():
    """Iterated distorted cuts move by the iterated level transfer."""
    start = time.monotonic()
    rng = random.Random(20240)
    failures = 0
    for _ in range(200):
        n_pts = rng.randrange(2, 7)
        sys = random_table_system(rng, n_pts)
        m = rng.randrange(1, 5)
        grid = LevelGrid(m)
        levels = grid.with_zero()
        raw = sorted(rng.choice(levels) for _ in range(m - 1))
        table = {F(0): F(0), F(1): F(1)}
        prev = F(0)
        for lv, val in zip(grid.levels[:-1], raw):
            table[lv] = max(val, prev)
            prev = table[lv]
        g = GFunction(grid, table)
        a = FuzzySet(sys.space, grid,
                     [rng.choice(levels) for _ in sys.space.points])
        xi = xi_of(g)
        current, cuts = a, {alpha: alpha for alpha in grid.levels}
        for n in range(1, 11):
            current = g_fuzzify_apply(sys, g, current)
            cuts = {alpha: xi[lv] for alpha, lv in cuts.items()}
            for alpha, level in cuts.items():
                want = alpha_cut(a, level).members
                for _ in range(n):
                    want = frozenset(apply(sys, p) for p in want)
                if alpha_cut(current, alpha).members != want:
                    failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    print(f"\nCRITERION-02 cut commutation PASS (200 triples, {elapsed:.1f}s)")


def test_criterion_03_transitivity_equivalences():
    """All five transitivity/weak-mixing items rise and fall together."""
    start = time.monotonic()
    for sys in catalog_bijections_upto(5):
        rep = verify_theorem("transitivity", sys, m=2)
        assert rep.consistent and not rep.red_alert, sys.label
        statuses = {it.status for it in rep.matrix_items()}
        assert statuses == {"fails"}, sys.label
        assert all(it.exact for it in rep.matrix_items()), sys.label
    rep = verify_theorem("transitivity", one_point_system(), m=2)
    assert rep.consistent and not rep.red_alert
    assert {it.status for it in rep.matrix_items()} == {"holds"}
    rep = verify_theorem("transitivity", full_shift(2, 3), m=1)
    assert rep.consistent and not rep.red_alert
    assert {it.status for it in rep.matrix_items()} == {"holds"}
    exact_statuses = {it.status for it in rep.matrix_items() if it.exact}
    assert len(exact_statuses) <= 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nCRITERION-03 transitivity equivalences PASS ({elapsed:.1f}s)")


def test_criterion_04_height_obstruction():
    """Mixed-height pairs stay a full diameter apart forever, so the
    mixed-height enumeration is never proximal or transitive."""
    grid = LevelGrid(2)
    pairs_checked = 0
    for sys in catalog_upto(4):
        pre, per = sys.eventual_period()
        lift = fuzzy_lift_system(sys, grid, "all")
        space = lift.space
        heights = [max(s) for s in space.points]
        diam = sys.space.diam
        tables = iterate_tables(lift, pre + per + 1)
        for i in range(len(space.points)):
            for j in range(i + 1, len(space.points)):
                if heights[i] == heights[j]:
                    continue
                for tbl in tables:
                    assert space.d_by_index(tbl[i], tbl[j]) == diam, sys.label
                    pairs_checked += 1
        if sys.space.nontrivial:
            f0 = fuzzy_lift_system(sys, grid, "nonempty")
            assert is_proximal(f0).fails, sys.label
            assert is_transitive(f0).fails, sys.label
    print(f"\nCRITERION-04 height obstruction PASS "
          f"({pairs_checked} pair-times, zero exceptions)")


def test_criterion_05_uniform_rigidity_equivalence():
    start = time.monotonic()
    rep = verify_theorem("uniform-rigidity", make_rotation(12, 1),
                         eps=F(1, 24), m=2, lambdas=(HALF, ONE))
    assert rep.consistent and not rep.red_alert
    for it in rep.items:
        assert it.status == "holds" and it.exact, it.item_id
        assert dict(it.witnesses)["witness_n"] == 12, it.item_id
    rep = verify_theorem("uniform-rigidity",
                         make_grid_interval_map("half", 8),
                         eps=F(1, 16), m=2, lambdas=(HALF, ONE))
    assert rep.consistent
    for it in rep.items:
        assert it.status == "fails" and it.exact, it.item_id
        assert dict(it.witnesses)["witness_n"] is None, it.item_id
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    print(f"\nCRITERION-05 uniform rigidity PASS (witness 12 / none, "
          f"{elapsed:.1f}s)")


def test_criterion_06_equicontinuity_equivalence():
    # nontrivial catalog isometries, sized so the fuzzy enumeration fits:
    # grid 1/2 up to four points, unit grid for the five- and six-point ones
    small = [s for s in catalog_isometries_upto(4) if s.space.nontrivial]
    mid = [s for s in catalog_isometries_upto(6)
           if len(s.space.points) in (5, 6)]
    assert small and mid
    for sys, m in [(s, 2) for s in small] + [(s, 1) for s in mid]:
        eps = sys.space.min_positive_distance()
        rep = verify_theorem("equicontinuity", sys, m=m, eps=eps)
        assert rep.consistent, sys.label
        for it in rep.items:
            assert it.status == "holds", (sys.label, it.item_id)
            assert dict(it.witnesses)["delta"] == str(eps), \
                (sys.label, it.item_id)
    rep = verify_theorem("equicontinuity", make_multiply(9, 2), m=1,
                         eps=F(2, 9))
    assert rep.consistent
    existence = {it.status for it in rep.items}
    assert len(existence) == 1
    print("\nCRITERION-06 equicontinuity PASS (delta = eps on isometries, "
          "levels agree on the expanding map)")


def test_criterion_07_proximality_theorem():
    rep = verify_theorem("proximality", make_grid_interval_map("half", 8),
                         m=2, lambdas=(HALF, ONE))
    assert rep.consistent and not rep.red_alert
    for it in rep.matrix_items():
        assert it.status == "holds" and it.exact, it.item_id
    remark = [it for it in rep.items if not it.in_matrix]
    assert remark and remark[0].status == "fails"
    rep = verify_theorem("proximality", make_rotation(4, 1), m=2,
                         lambdas=(HALF, ONE))
    assert rep.consistent
    for it in rep.matrix_items():
        assert it.status == "fails" and it.exact, it.item_id
    print("\nCRITERION-07 proximality PASS (collapse and rotation agree "
          "levelwise)")


def test_criterion_08_weak_mixing_method_agreement():
    disagreements = 0
    for sys in base_catalog():
        product = is_weakly_mixing(sys, method="product")
        overlap = is_weakly_mixing(sys, method="lemma")
        if product.status != overlap.status:
            disagreements += 1
    sd = ShiftDyn(full_shift(2, 3))
    if is_weakly_mixing(sd).status != \
            is_weakly_mixing(sd, method="lemma").status:
        disagreements += 1
    rng = random.Random(20248)
    for _ in range(100):
        sys = random_table_system(rng, 4)
        if is_weakly_mixing(sys, method="product").status != \
                is_weakly_mixing(sys, method="lemma").status:
            disagreements += 1
    assert disagreements == 0
    print("\nCRITERION-08 weak mixing methods PASS (catalog + 100 random, "
          "zero disagreements)")


def test_criterion_09_family_machinery():
    """On eventually periodic sets: a set is syndetic iff its complement
    is not thick, and it contains an IP set iff a search over the finite
    sums of p(p - 1) + 1 generators finds one inside it."""
    rng = random.Random(20249)

    def member(kind, bits, pre, per):
        family = FamilyClassifier(kind)
        mask = family.mask(pre, per)
        return bits & mask == mask if family.full else bits & mask != 0
    for _ in range(500):
        pre, per = rng.randrange(10), rng.randrange(1, 10)
        bits = rng.getrandbits(pre + per)
        complement = ~bits & (1 << pre + per) - 1
        assert (not member("thick", complement, pre, per)) == \
            member("syndetic", bits, pre, per)
    for _ in range(100):
        pre, per = rng.randrange(6), rng.randrange(1, 6)
        bits = rng.getrandbits(pre + per)
        found = member("ip", bits, pre, per)
        assert found == brute_ip_search(bits, pre, per)
        if found:
            gens = [per * (pre + 2 ** i) for i in range(5)]
            assert all(periodic_member(bits, pre, per, n)
                       for n in fs_set(gens, sum(gens) + 1).members)
    print("\nCRITERION-09 family machinery PASS (500 duals, 100 IP "
          "residue decisions against a sum search)")


def test_criterion_10_metric_axioms():
    for sys in base_catalog():
        assert validate_metric(sys.space) == [], sys.label
    for sys in catalog_upto(5):
        assert validate_metric(lift_system(sys).space) == [], sys.label

    # subset metric, exhaustively on four-point spaces
    for space in (circle_space(4),
                  taxi_space([(F(0), F(0)), (F(1), F(0)),
                              (F(0), F(1)), (F(2), F(1))])):
        sets = list(enumerate_compacts(space))
        for a in sets:
            assert hausdorff_distance(a, a) == 0
        for a, b in itertools.combinations(sets, 2):
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a) > 0
        for a, b, c in itertools.combinations(sets, 3):
            assert hausdorff_distance(a, c) <= \
                hausdorff_distance(a, b) + hausdorff_distance(b, c)

    # levelwise metric on the top-height slice, three points, grid 1/2
    ident = SystemMap(circle_space(3), range(3))
    lift = fuzzy_lift_system(ident, LevelGrid(2), ("eq", ONE))
    assert validate_metric(lift.space) == []
    print("\nCRITERION-10 metric axioms PASS (spaces, subset metric, "
          "levelwise metric)")
