import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.errors import InputError
from fuzzdyn.families import KINDS, FamilyClassifier, IndexSet
from helpers import (brute_family_results, brute_ip_search, fs_set,
                     periodic_member)


def iset(horizon, members):
    return IndexSet.of(horizon, members)


def member_of(kind, bits, pre, per):
    """The family's verdict on the set periodic from pre with period per
    whose members below pre + per are the set bits of ``bits``."""
    family = FamilyClassifier(kind)
    mask = family.mask(pre, per)
    return bits & mask == mask if family.full else bits & mask != 0


def bits_of(members):
    return sum(1 << n for n in members)


@st.composite
def periodic_sets(draw, max_per=4):
    """(bits, pre, per) of an eventually periodic set with small period."""
    pre = draw(st.integers(0, 6))
    per = draw(st.integers(1, max_per))
    return draw(st.integers(0, (1 << pre + per) - 1)), pre, per


def random_periodic(rng):
    pre, per = rng.randrange(8), rng.randrange(1, 7)
    return rng.getrandbits(pre + per), pre, per


class TestClassifiers:
    def test_evens_syndetic(self):
        assert member_of("syndetic", 0b01, 0, 2)

    def test_single_point_not_syndetic(self):
        # {0}: nothing from 1 on, period 1
        assert not member_of("syndetic", 0b01, 1, 1)

    def test_thick_block(self):
        # a block that goes on forever is thick; a finite one is not
        assert member_of("thick", bits_of(range(10, 61)), 10, 1)
        assert not member_of("thick", bits_of(range(10, 61)), 61, 1)

    def test_evens_not_thick(self):
        assert not member_of("thick", 0b01, 0, 2)

    def test_tail_cofinite(self):
        assert member_of("cofinite", bits_of(range(3, 4)), 3, 1)

    def test_evens_not_cofinite(self):
        assert not member_of("cofinite", 0b01, 0, 2)

    def test_infinite_tail_window(self):
        # 70 repeats every 30 from 50 on; 3 never comes back
        assert member_of("infinite", 1 << 70, 50, 30)
        assert not member_of("infinite", 1 << 3, 50, 30)

    def test_heredity_upwards_random(self):
        rng = random.Random(0)
        for _ in range(200):
            small, pre, per = random_periodic(rng)
            big = small | rng.getrandbits(pre + per)
            for kind in KINDS:
                if member_of(kind, small, pre, per):
                    assert member_of(kind, big, pre, per), kind


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


def fs_inside(gens, bits, pre, per):
    """Does FS(gens) lie in the periodic set."""
    return all(periodic_member(bits, pre, per, n)
               for n in fs_set(gens, sum(gens) + 1).members)


class TestContainsIp:
    def test_planted_witness(self):
        # the multiples of 3 from 6 on, and 1 and 5
        bits = bits_of([1, 5, 6])
        assert member_of("ip", bits, 5, 3)
        assert fs_inside([3 * (5 + 2 ** i) for i in range(4)], bits, 5, 3)

    def test_tiny_set_fails(self):
        assert not member_of("ip", 0b10, 2, 1)
        assert not brute_ip_search(0b10, 2, 1)

    def test_oracle_agreement(self):
        rng = random.Random(1)
        for _ in range(100):
            bits, pre, per = random_periodic(rng)
            per = min(per, 4)
            bits &= (1 << pre + per) - 1
            assert member_of("ip", bits, pre, per) == \
                brute_ip_search(bits, pre, per)


@settings(max_examples=150, deadline=None)
@given(periodic_sets())
def test_ip_residue_lemma(case):
    """A set periodic from q with period p contains an IP set iff it holds
    the multiple of p in [q, q + p).  On a yes, the FS set of the
    generators p(q + 2^i) lies in the set; on a no, no FS set of p(p - 1)
    + 1 generators, each at least q, does: some p of them share a residue,
    and their sum would be a multiple of p from q on."""
    bits, pre, per = case
    if member_of("ip", bits, pre, per):
        assert fs_inside([per * (pre + 2 ** i) for i in range(6)],
                         bits, pre, per)
    else:
        assert not brute_ip_search(bits, pre, per)


@settings(max_examples=200, deadline=None)
@given(periodic_sets(max_per=6))
def test_bitset_classifiers_match_member_scans(case):
    """Each tail family's period-mask test equals its definition read member
    by member over several periods."""
    bits, pre, per = case
    brute = brute_family_results(bits, pre, per)
    assert {kind: member_of(kind, bits, pre, per)
            for kind in brute} == brute


class TestDuality:
    def test_syndetic_thick_duality_matched_thresholds(self):
        """A set meets every thick set iff it is syndetic: its complement
        is not thick."""
        rng = random.Random(3)
        for _ in range(200):
            bits, pre, per = random_periodic(rng)
            complement = ~bits & (1 << pre + per) - 1
            assert (not member_of("thick", complement, pre, per)) == \
                member_of("syndetic", bits, pre, per)

    def test_dual_of_infinite_is_tail_containment(self):
        rng = random.Random(4)
        for _ in range(200):
            bits, pre, per = random_periodic(rng)
            complement = ~bits & (1 << pre + per) - 1
            assert (not member_of("infinite", complement, pre, per)) == \
                member_of("cofinite", bits, pre, per)

    def test_whole_horizon_in_every_dual(self):
        # the complement of every time is empty, in no family
        for kind in KINDS:
            assert not member_of(kind, 0, 3, 4)

    def test_custom_rejected(self):
        # the built-in kinds are the only kinds
        with pytest.raises(InputError):
            FamilyClassifier("custom")


def test_syndetic_meets_thick_at_matched_threshold():
    rng = random.Random(5)
    for _ in range(200):
        (s, pre, per), t = random_periodic(rng), rng.getrandbits(13)
        t &= (1 << pre + per) - 1
        if member_of("syndetic", s, pre, per) and \
                member_of("thick", t, pre, per):
            assert member_of("infinite", s & t, pre, per)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda h: st.tuples(
    st.just(h), st.sets(st.integers(0, h - 1)), st.integers(-3, h + 3))))
def test_indexset_operations_match_python_sets(case):
    """Every operation on the bitset equals the same operation on a plain
    set of members."""
    horizon, members, n = case
    s = iset(horizon, members)
    assert IndexSet.from_bits(horizon, s.bits) == s
    assert s.bits == sum(1 << v for v in members)
    assert s.members == frozenset(members)
    assert s.sorted_members() == sorted(members)
    assert len(s) == len(members)
    assert (n in s) == (n in members)


def test_indexset_fields_are_horizon_and_bits():
    assert [f.name for f in dataclasses.fields(IndexSet)] == ["horizon",
                                                              "bits"]
    assert [f.name for f in dataclasses.fields(FamilyClassifier)] == ["kind"]


def test_indexset_validation():
    with pytest.raises(InputError):
        IndexSet.of(10, [10])
    with pytest.raises(InputError):
        IndexSet.of(0, [])
    with pytest.raises(InputError):
        IndexSet.from_bits(0, 0)
