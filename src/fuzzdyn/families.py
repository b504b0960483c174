"""Finite-horizon combinatorics of index sets: syndetic, thick, cofinite,
IP-style sums, difference sets, and dual-family membership.

All verdicts here are horizon-relative with explicit thresholds.  Bounded
evidence about tails is reported as such; nothing claims more than what was
scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InputError


def _checked_horizon(horizon: int) -> int:
    if horizon < 1:
        raise InputError("horizon must be positive")
    return horizon


@dataclass(frozen=True)
class IndexSet:
    """Subset of {0, ..., horizon-1}; every verdict carries the horizon.
    The set is one bitset: bit n of ``bits`` is set iff n is a member, and
    the members are decoded from it only when read."""

    horizon: int
    bits: int

    def __post_init__(self):
        _checked_horizon(self.horizon)
        if self.bits < 0 or self.bits >> self.horizon:
            raise InputError("index set member outside [0, horizon)")

    @classmethod
    def of(cls, horizon: int, members: Iterable[int]) -> "IndexSet":
        _checked_horizon(horizon)
        members = frozenset(members)
        if any((not isinstance(v, int)) or v < 0 or v >= horizon
               for v in members):
            raise InputError("index set member outside [0, horizon)")
        return cls(horizon, sum(1 << v for v in members))

    @classmethod
    def from_bits(cls, horizon: int, bits: int) -> "IndexSet":
        """The set whose members are the set bits below the horizon."""
        return cls(horizon, bits & ((1 << _checked_horizon(horizon)) - 1))

    @property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> list[int]:
        digits = format(self.bits, "b")[::-1]       # bit 0 first
        return [n for n, c in enumerate(digits) if c == "1"]

    def complement(self) -> "IndexSet":
        return IndexSet.from_bits(self.horizon, ~self.bits)

    def __contains__(self, n: int) -> bool:
        return n >= 0 and self.bits >> n & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()


class SyndeticResult(NamedTuple):
    ok: bool
    gap: int


class ThickResult(NamedTuple):
    ok: bool
    max_run: int


class CofiniteResult(NamedTuple):
    ok: bool
    tail_start: int


class InfiniteResult(NamedTuple):
    ok: bool
    tail_count: int


def default_window(horizon: int) -> int:
    """Shared gap/run threshold r(H) used by syndetic and thick verdicts."""
    return max(1, horizon // 4)


def default_tail(horizon: int) -> int:
    """Shared tail bound H/2 used by cofinite and infinite verdicts."""
    return horizon // 2


def _longest_run(s: IndexSet, inside: bool) -> int:
    """Length of the longest run of consecutive n below the horizon whose
    membership in the set equals ``inside``."""
    digits = format(s.bits, "b").zfill(s.horizon)
    return max(map(len, digits.split("0" if inside else "1")))


def classify_syndetic(s: IndexSet, gap_threshold: int | None = None) -> SyndeticResult:
    """Bounded-gap verdict at horizon.

    True iff every window of length r meets the set, where r is the shared
    threshold (default H//4).  The reported gap is the largest spacing
    between consecutive members, with virtual sentinels just outside the
    horizon on both sides.
    """
    r = gap_threshold if gap_threshold is not None else default_window(s.horizon)
    missing = _longest_run(s, inside=False)
    ok = missing + 1 <= r
    if not s.bits:
        return SyndeticResult(ok, s.horizon)
    # spacings of consecutive members, with sentinels at -1 and horizon - 1:
    # one more than each run of non-members below the top member, and the
    # run above it
    below_top = max(map(len, format(s.bits, "b").split("1")))
    return SyndeticResult(ok, max(below_top + 1,
                                  s.horizon - s.bits.bit_length()))


def classify_thick(s: IndexSet, run_threshold: int | None = None) -> ThickResult:
    """Long-run verdict at horizon: a run of length >= r counts as thick."""
    r = run_threshold if run_threshold is not None else default_window(s.horizon)
    longest = _longest_run(s, inside=True)
    return ThickResult(longest >= r, longest)


def classify_cofinite(s: IndexSet, tail_bound: int | None = None) -> CofiniteResult:
    """True iff [t, H) is contained in the set for some t <= bound (default H/2)."""
    bound = tail_bound if tail_bound is not None else default_tail(s.horizon)
    # one past the last non-member, 0 when every n is a member
    t = (~s.bits & ((1 << s.horizon) - 1)).bit_length()
    return CofiniteResult(t <= bound, t)


def classify_infinite(s: IndexSet, tail_bound: int | None = None) -> InfiniteResult:
    """Horizon proxy for infinitude: membership in the tail window [bound, H)."""
    bound = tail_bound if tail_bound is not None else default_tail(s.horizon)
    tail = (s.bits >> max(bound, 0)).bit_count()
    return InfiniteResult(tail > 0, tail)


def fs_set(generators: Sequence[int], horizon: int) -> IndexSet:
    """All finite sums of distinct generators, truncated to [0, horizon)."""
    gens = list(generators)
    if not gens:
        raise InputError("fs_set needs at least one generator")
    if any((not isinstance(g, int)) or g < 1 for g in gens):
        raise InputError("generators must be positive integers")
    full = (1 << _checked_horizon(horizon)) - 1
    sums = 1                                    # bit 0: the empty sum
    for g in gens:
        sums |= sums << g & full
    return IndexSet(horizon, sums & ~1)


def contains_ip(s: IndexSet, depth: int, depth_bound: int = 5):
    """Search for depth-many positive integers whose finite sums all lie in
    the set.  The verdict is IP-at-depth only; candidates are members of the
    set itself (each singleton sum must belong) taken in nondecreasing order.

    Returns (found, witness_generators).
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if depth > depth_bound:
        raise InputError(f"IP depth {depth} exceeds bound {depth_bound}")
    members = s.sorted_members()

    def extend(chosen: list[int], sums: int, start: int):
        if len(chosen) == depth:
            return tuple(chosen)
        for idx, p in enumerate(members[start:], start):
            new = sums << p | 1 << p            # the sums that use p
            if not new & ~s.bits:
                got = extend(chosen + [p], sums | new, idx)
                if got is not None:
                    return got
        return None

    witness = extend([], 0, 0)
    return (witness is not None, witness or ())


def difference_set(s: IndexSet) -> IndexSet:
    """All nonnegative differences of members, at the same horizon."""
    out = 0
    for j in s.sorted_members():
        out |= s.bits >> j                      # i - j for every member i >= j
    return IndexSet(s.horizon, out)


class TailKind(NamedTuple):
    """A tail family: its classifier, its threshold's name and default, and
    whether a periodic part must be ``full``, not just nonzero, to belong."""

    classify: Callable[[IndexSet, int], tuple]
    threshold: str
    default: Callable[[int], int]
    full: bool


TAIL_KINDS = {
    "infinite": TailKind(classify_infinite, "tail_window", default_tail, False),
    "cofinite": TailKind(classify_cofinite, "tail_bound", default_tail, True),
    "syndetic": TailKind(classify_syndetic, "gap", default_window, False),
    "thick": TailKind(classify_thick, "run", default_window, True),
}


@dataclass(frozen=True)
class FamilyClassifier:
    """One of the built-in families, with its horizon thresholds.

    kind: "infinite" | "cofinite" | "syndetic" | "thick" | "ip"
    """

    kind: str
    threshold: int | None = None
    depth: int = 3

    def __post_init__(self):
        if self.kind not in (*TAIL_KINDS, "ip"):
            raise InputError(f"unknown family kind {self.kind!r}")

    def classify(self, s: IndexSet) -> tuple[bool, dict]:
        """(verdict, detail); detail is JSON-ready and names thresholds."""
        detail = {"kind": self.kind, "horizon": s.horizon}
        tail = TAIL_KINDS.get(self.kind)
        if tail is not None:
            limit = (self.threshold if self.threshold is not None
                     else tail.default(s.horizon))
            ok, witness = tail.classify(s, limit)
            detail.update(thresholds={tail.threshold: limit}, witness=witness)
            return ok, detail
        ok, witness = contains_ip(s, self.depth)
        detail.update(thresholds={"depth": self.depth}, witness=list(witness))
        return ok, detail


def dual_contains(s: IndexSet, family: FamilyClassifier) -> bool:
    """Dual-family membership via the complement characterization:
    the set meets every member of the family iff its complement is not in
    the family.  Thresholds are shared between the two sides.
    """
    ok, _ = family.classify(s.complement())
    return not ok
