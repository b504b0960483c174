import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzdyn.spaces as spaces
from fuzzdyn.analysis import is_transitive, return_time_set
from fuzzdyn.cli import main
from fuzzdyn.errors import BoundExceeded, InputError
from fuzzdyn.oracles import HyperShiftDyn, ShiftDyn, VietorisOpen
from fuzzdyn.symbolic import ShiftSystem, full_shift, golden_mean_shift
from helpers import shift_brute_member, vertex_shifts


def test_full_shift_word_counts():
    fs = full_shift(2, 3)
    assert [len(fs.legal_words(k)) for k in (1, 2, 3)] == [2, 4, 8]


def test_golden_mean_fibonacci_counts():
    gm = golden_mean_shift(4)
    assert [len(gm.legal_words(k)) for k in (1, 2, 3, 4)] == [2, 3, 5, 8]
    assert all("11" not in w for w in gm.legal_words(4))


def test_stranded_vertex_rejected():
    with pytest.raises(InputError):
        ShiftSystem("01", [("0", "1")], 3)


def test_legality():
    gm = golden_mean_shift(4)
    assert gm.is_legal("0101")
    assert not gm.is_legal("0110")
    assert not gm.is_legal("")
    assert not gm.is_legal("02")


def test_return_bits_validates_each_short_word_once(monkeypatch):
    gm = golden_mean_shift(3)
    checked = []
    is_legal = ShiftSystem.is_legal
    monkeypatch.setattr(ShiftSystem, "is_legal",
                        lambda self, w: checked.append(w) or is_legal(self, w))
    for _ in range(3):
        gm.return_bits("01", "10")
        gm.return_bits("10", "01")
    assert sorted(checked) == ["01", "10"]
    # a word longer than the resolution is never kept, so the set stays
    # within the cylinders, and it raises at every call
    for _ in range(2):
        with pytest.raises(InputError, match="longer than the resolution"):
            gm.return_bits("0", "0101")
    assert "0101" not in checked
    assert gm._legal == {"01", "10", "0"}
    assert ("0", "0101") not in gm._pairs


def test_an_illegal_word_raises_at_every_call():
    gm = golden_mean_shift(3)
    for _ in range(3):
        for u, v in (("11", "0"), ("0", "11"), ("", "0")):
            with pytest.raises(InputError):
                gm.return_bits(u, v)
    assert gm._legal == {"0"}


def test_return_times_example():
    fs = full_shift(2, 3)
    assert return_time_set(fs, "01", "1", 10).bits == 0b1111111110


def test_cofinite_tail_of_long_cylinder():
    """Every time from the clock's preperiod on is a return time of every
    pair of cylinders of the full shift."""
    fs = full_shift(2, 3)
    pre, per = fs.clock()
    assert (pre, per) == (3, 1)
    for u in fs.legal_words(3):
        for v in fs.legal_words(3):
            bits = return_time_set(fs, u, v, 32).bits
            assert bits >> pre == (1 << 32 - pre) - 1


@pytest.mark.parametrize("shift", [full_shift(2, 3), golden_mean_shift(4)])
def test_membership_matches_word_enumeration(shift):
    words = shift.cylinders(3)
    for u, v in itertools.product(words, repeat=2):
        times = return_time_set(shift, u, v, 8)
        for n in range(8):
            fast = n in times
            listed = any(w.startswith(u) and w[n:n + len(v)] == v for w
                         in shift.legal_words(max(len(u), n + len(v))))
            brute = shift_brute_member(shift, u, v, n)
            assert fast == brute == listed, (u, v, n)


def test_membership_rejects_illegal_words():
    gm = golden_mean_shift(4)
    with pytest.raises(InputError):
        gm.return_bits("11", "0")


def test_golden_mean_overlap_blocked():
    gm = golden_mean_shift(4)
    # shifting [1] by one step cannot land in [1]: 11 is forbidden
    assert return_time_set(gm, "1", "1", 3).bits == 0b101


def test_walk_cache_is_bounded():
    """The walk bitsets are one per ordered symbol pair, each as long as
    the adjacency clock, whatever the horizons asked for."""
    shift = full_shift(3, 3)
    return_time_set(shift, "0", "1", 10)
    return_time_set(shift, "0", "1", 100)
    return_time_set(shift, "010", "1", 100)
    assert len(shift._walk_cache) == 3 * 3
    assert all(bits < 1 << sum(shift.adjacency_clock())
               for bits in shift._walk_cache.values())


@st.composite
def shifts_and_asks(draw):
    """A vertex shift (a cycle through every symbol keeps none stranded),
    and return-time asks on its legal words, up to one longer than the
    resolution, with horizons in any order."""
    k = draw(st.integers(1, 3))
    syms = "abc"[:k]
    edges = set(draw(st.lists(st.tuples(st.sampled_from(syms),
                                        st.sampled_from(syms)))))
    edges |= {(syms[i], syms[(i + 1) % k]) for i in range(k)}
    resolution = draw(st.integers(1, 3 if k < 3 else 2))
    args = (syms, sorted(edges), resolution)
    words = st.sampled_from(ShiftSystem(*args).cylinders(resolution + 1))
    asks = draw(st.lists(st.tuples(words, words, st.integers(1, 80)),
                         min_size=1, max_size=12))
    return args, asks


def answer(shift, u, v, horizon):
    """N([u], [v]) below the horizon, or the message of its error."""
    try:
        return return_time_set(shift, u, v, horizon).bits
    except InputError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(shifts_and_asks())
def test_the_word_pair_memo_answers_as_a_fresh_shift(drawn):
    """Each answer of one shift, after any earlier asks, is the answer of a
    fresh shift, a word longer than the resolution raising in both, and a
    sweep of horizons leaves one bitset per pair of cylinders, below the
    clock."""
    args, asks = drawn
    shift = ShiftSystem(*args)
    for u, v, horizon in asks:
        assert answer(shift, u, v, horizon) == \
            answer(ShiftSystem(*args), u, v, horizon)
    cylinders = shift.cylinders(shift.resolution)
    for horizon in range(1, 65):
        for u, v in itertools.product(cylinders, repeat=2):
            return_time_set(shift, u, v, horizon)
    assert len(shift._pairs) == len(cylinders) ** 2
    assert all(0 <= bits < 1 << sum(shift.clock())
               for bits in shift._pairs.values())


@pytest.mark.parametrize("shift, adjacency, clock", [
    (full_shift(2, 3), (1, 1), (3, 1)),
    (golden_mean_shift(4), (2, 1), (5, 1)),
    (ShiftSystem("ab", [("a", "b"), ("b", "a")], 2), (0, 2), (2, 2)),
    # a 2-cycle and a 3-cycle: A^n repeats with period 6 from n = 0
    (ShiftSystem("abcde", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "e"),
                           ("e", "c")], 1), (0, 6), (1, 6)),
])
def test_adjacency_clock(shift, adjacency, clock):
    assert shift.adjacency_clock() == adjacency
    assert shift.clock() == clock


@settings(max_examples=60, deadline=None)
@given(vertex_shifts(), st.data())
def test_clock_extension_matches_a_long_brute_scan(shift, data):
    """Past the clock every N([u],[v]) repeats with its period: the bits
    below pre + per, extended periodically, equal a word-by-word scan over
    two more periods."""
    pre, per = shift.clock()
    words = shift.cylinders(shift.resolution)
    u = data.draw(st.sampled_from(words))
    v = data.draw(st.sampled_from(words))
    bits = shift.return_bits(u, v)
    assert 0 <= bits < 1 << pre + per
    for n in range(pre + 3 * per):
        k = n if n < pre + per else pre + (n - pre) % per
        assert bool(bits >> k & 1) == shift_brute_member(shift, u, v, n), n


def test_a_word_longer_than_the_resolution_is_rejected():
    """Past the resolution a cylinder's return times need not repeat from
    the clock on, so no shift oracle takes it as an open and the shift
    answers no read of it; the CLI turns the error into exit 2."""
    shift = full_shift(2, 2)
    with pytest.raises(InputError, match="longer than the resolution"):
        is_transitive(ShiftDyn(shift), basis=["0", "1", "010"])
    with pytest.raises(InputError, match="longer than the resolution"):
        HyperShiftDyn(shift).as_open(VietorisOpen(("0", "011")))
    assert ShiftDyn(shift).as_open("01").word == "01"
    # the shift's own read follows the one word rule
    with pytest.raises(InputError, match="longer than the resolution"):
        shift.return_bits("0", "010")


def test_the_shift_clock_exits_three_past_the_state_cap(tmp_path, capsys):
    shift = full_shift(2, 3)
    with mock.patch.object(spaces, "STATE_CAP", 1):
        with pytest.raises(BoundExceeded, match="shift clock"):
            shift.adjacency_clock()
        assert main(["check", "--system", "fullshift:2,3", "--props",
                     "transitivity", "--out", str(tmp_path)]) == 3
    assert "bound exceeded: shift clock" in capsys.readouterr().err
    assert shift.adjacency_clock() == (1, 1)
