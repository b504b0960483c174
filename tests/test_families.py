import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.errors import InputError
from fuzzdyn.families import (FamilyClassifier, IndexSet, classify_cofinite,
                              classify_infinite, classify_syndetic,
                              classify_thick, contains_ip, difference_set,
                              dual_contains, fs_set)
from helpers import brute_family_results


def iset(horizon, members):
    return IndexSet.of(horizon, members)


class TestClassifiers:
    def test_evens_syndetic(self):
        s = iset(100, range(0, 100, 2))
        assert classify_syndetic(s) == (True, 2)

    def test_single_point_not_syndetic(self):
        s = iset(100, [0])
        ok, gap = classify_syndetic(s)
        assert not ok and gap == 99

    def test_thick_block(self):
        s = iset(100, range(10, 61))
        ok, run = classify_thick(s, 25)
        assert ok and run >= 51

    def test_evens_not_thick(self):
        assert classify_thick(iset(100, range(0, 100, 2))) == (False, 1)

    def test_tail_cofinite(self):
        ok, t = classify_cofinite(iset(100, range(3, 100)))
        assert ok and t == 3

    def test_evens_not_cofinite(self):
        assert not classify_cofinite(iset(100, range(0, 100, 2))).ok

    def test_infinite_tail_window(self):
        assert classify_infinite(iset(100, [70])).ok
        assert not classify_infinite(iset(100, [3])).ok

    def test_heredity_upwards_random(self):
        rng = random.Random(0)
        classifiers = [classify_syndetic, classify_thick, classify_cofinite,
                       classify_infinite]
        for _ in range(60):
            base = {n for n in range(200) if rng.random() < 0.3}
            extra = {n for n in range(200) if rng.random() < 0.3}
            small, big = iset(200, base), iset(200, base | extra)
            for classify in classifiers:
                if classify(small)[0]:
                    assert classify(big)[0], classify.__name__


class TestFsSets:
    def test_binary_generators_fill_range(self):
        s = fs_set([1, 2, 4, 8, 16, 32], 64)
        assert s.sorted_members() == list(range(1, 64))

    def test_single_generator(self):
        assert fs_set([5], 100).sorted_members() == [5]

    def test_two_generators(self):
        assert fs_set([3, 4], 100).sorted_members() == [3, 4, 7]

    def test_monotone_in_generators(self):
        a = fs_set([2, 5], 64)
        b = fs_set([2, 5, 9], 64)
        assert a.members <= b.members

    def test_empty_generators_rejected(self):
        with pytest.raises(InputError):
            fs_set([], 10)


class TestContainsIp:
    def test_planted_witness(self):
        s = iset(64, fs_set([1, 2, 4], 64).members | {40, 50})
        found, witness = contains_ip(s, 3)
        assert found
        sums = {sum(c) for r in range(1, 4)
                for c in itertools.combinations(witness, r)}
        assert sums <= s.members

    def test_tiny_set_fails(self):
        assert contains_ip(iset(10, [1]), 2) == (False, ())

    def test_depth_bound(self):
        with pytest.raises(InputError):
            contains_ip(iset(10, [1]), 9)

    def test_oracle_agreement(self):
        rng = random.Random(1)
        for _ in range(40):
            members = {n for n in range(1, 40) if rng.random() < 0.45}
            s = iset(40, members)
            found, witness = contains_ip(s, 3)
            ordered = sorted(members)
            brute = False
            for combo in itertools.combinations_with_replacement(ordered, 3):
                sums = {sum(c) for r in range(1, 4)
                        for c in itertools.combinations(combo, r)}
                if sums <= members:
                    brute = True
                    break
            assert found == brute


class TestDifferenceSets:
    def test_evens_closed(self):
        s = iset(50, range(0, 50, 2))
        assert difference_set(s).members == set(range(0, 50, 2))

    def test_singleton(self):
        assert difference_set(iset(50, [5])).members == {0}

    def test_pairwise_oracle(self):
        s = fs_set([1, 2, 4], 64)
        got = difference_set(s).members
        want = {i - j for i in s.members for j in s.members if i >= j}
        assert got == want

    def test_contains_zero_when_nonempty(self):
        rng = random.Random(2)
        for _ in range(20):
            members = {n for n in range(30) if rng.random() < 0.3}
            if members:
                assert 0 in difference_set(iset(30, members)).members


class TestDuality:
    def test_syndetic_thick_duality_matched_thresholds(self):
        rng = random.Random(3)
        for _ in range(100):
            members = {n for n in range(200) if rng.random() < rng.random()}
            s = iset(200, members)
            assert dual_contains(s, FamilyClassifier("thick")) == \
                classify_syndetic(s).ok

    def test_dual_of_infinite_is_tail_containment(self):
        rng = random.Random(4)
        for _ in range(50):
            members = {n for n in range(100) if rng.random() < 0.7}
            s = iset(100, members)
            expect = all(n in members for n in range(50, 100))
            assert dual_contains(s, FamilyClassifier("infinite")) == expect

    def test_whole_horizon_in_every_dual(self):
        s = iset(64, range(64))
        for kind in ("syndetic", "thick", "infinite"):
            assert dual_contains(s, FamilyClassifier(kind))

    def test_custom_rejected(self):
        # the built-in kinds are the only kinds
        with pytest.raises(InputError):
            FamilyClassifier("custom")


def test_syndetic_meets_thick_at_matched_threshold():
    rng = random.Random(5)
    horizon, r = 200, 50
    for _ in range(60):
        stride = rng.randrange(2, r)
        syndetic = set()
        n = rng.randrange(stride)
        while n < horizon:
            syndetic.add(n)
            n += rng.randrange(1, stride + 1)
        start = rng.randrange(horizon - r)
        thick = set(range(start, start + r))
        assert classify_syndetic(iset(horizon, syndetic), r).ok
        assert classify_thick(iset(horizon, thick), r).ok
        assert syndetic & thick


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 99)))
def test_complement_involution(members):
    s = iset(100, members)
    assert s.complement().complement() == s


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80).flatmap(lambda h: st.tuples(
    st.just(h), st.integers(-1, 1 << h),
    st.one_of(st.none(), st.integers(-2, h + 2)))))
def test_bitset_classifiers_match_member_scans(case):
    """Each classifier reads the set's bitset; a set built from bits equals
    the one built from its members, and the results equal n-by-n scans."""
    horizon, bits, threshold = case
    members = {n for n in range(horizon) if bits >> n & 1}
    s = IndexSet.from_bits(horizon, bits)
    built = iset(horizon, members)
    assert s == built and s.bits == built.bits
    assert s.complement() == iset(horizon, set(range(horizon)) - members)
    got = (classify_syndetic(s, threshold), classify_thick(s, threshold),
           classify_cofinite(s, threshold), classify_infinite(s, threshold))
    assert tuple(map(tuple, got)) == brute_family_results(members, horizon,
                                                          threshold)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda h: st.tuples(
    st.just(h), st.sets(st.integers(0, h - 1)),
    st.lists(st.integers(1, h + 2), min_size=1, max_size=5),
    st.integers(-3, h + 3))))
def test_indexset_operations_match_python_sets(case):
    """Every operation on the bitset equals the same operation on a plain
    set of members."""
    horizon, members, gens, n = case
    s = iset(horizon, members)
    assert IndexSet.from_bits(horizon, s.bits) == s
    assert s.bits == sum(1 << v for v in members)
    assert s.members == frozenset(members)
    assert s.sorted_members() == sorted(members)
    assert len(s) == len(members)
    assert (n in s) == (n in members)
    assert s.complement().members == set(range(horizon)) - members
    sums = {sum(c) for r in range(1, len(gens) + 1)
            for c in itertools.combinations(gens, r)}
    assert fs_set(gens, horizon).members == {v for v in sums if v < horizon}
    assert difference_set(s).members == {i - j for i in members
                                         for j in members if i >= j}


def test_indexset_fields_are_horizon_and_bits():
    assert [f.name for f in dataclasses.fields(IndexSet)] == ["horizon",
                                                              "bits"]
    assert "name" not in {f.name for f in dataclasses.fields(FamilyClassifier)}


def test_indexset_validation():
    with pytest.raises(InputError):
        IndexSet.of(10, [10])
    with pytest.raises(InputError):
        IndexSet.of(0, [])
    with pytest.raises(InputError):
        IndexSet.from_bits(0, 0)


def test_classifier_detail_shape():
    s = iset(100, range(0, 100, 2))
    ok, detail = FamilyClassifier("syndetic").classify(s)
    assert ok
    assert detail == {"kind": "syndetic", "horizon": 100,
                      "thresholds": {"gap": 25}, "witness": 2}
