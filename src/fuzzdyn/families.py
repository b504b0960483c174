"""Finite-horizon combinatorics of index sets: syndetic, thick, cofinite,
IP-style sums, difference sets, and dual-family membership.

All verdicts here are horizon-relative with explicit thresholds.  Bounded
evidence about tails is reported as such; nothing claims more than what was
scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError


@dataclass(frozen=True)
class IndexSet:
    """Subset of {0, ..., horizon-1}; every verdict carries the horizon.
    The classifiers read the members as one bitset: bit n of ``bits`` is
    set iff n is a member."""

    horizon: int
    members: frozenset
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("horizon must be positive")
        object.__setattr__(self, "members", frozenset(self.members))
        if any((not isinstance(v, int)) or v < 0 or v >= self.horizon
               for v in self.members):
            raise InputError("index set member outside [0, horizon)")
        object.__setattr__(self, "bits", sum(1 << n for n in self.members))

    @classmethod
    def of(cls, horizon: int, members: Iterable[int]) -> "IndexSet":
        return cls(horizon, frozenset(members))

    @classmethod
    def from_bits(cls, horizon: int, bits: int) -> "IndexSet":
        """The set whose members are the set bits below the horizon."""
        if horizon < 1:
            raise InputError("horizon must be positive")
        bits &= (1 << horizon) - 1
        digits = format(bits, "b")[::-1]            # bit 0 first
        s = cls.__new__(cls)
        object.__setattr__(s, "horizon", horizon)
        object.__setattr__(s, "members", frozenset(
            n for n, c in enumerate(digits) if c == "1"))
        object.__setattr__(s, "bits", bits)
        return s

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def complement(self) -> "IndexSet":
        return IndexSet.from_bits(self.horizon, ~self.bits)

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def __len__(self) -> int:
        return len(self.members)


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
    bound = tail_bound if tail_bound is not None else s.horizon // 2
    # one past the last non-member, 0 when every n is a member
    t = (~s.bits & ((1 << s.horizon) - 1)).bit_length()
    return CofiniteResult(t <= bound, t)


def classify_infinite(s: IndexSet, tail_bound: int | None = None) -> InfiniteResult:
    """Horizon proxy for infinitude: membership in the tail window [bound, H)."""
    bound = tail_bound if tail_bound is not None else s.horizon // 2
    tail = (s.bits >> max(bound, 0)).bit_count()
    return InfiniteResult(tail > 0, tail)


def fs_set(generators: Sequence[int], horizon: int) -> IndexSet:
    """All finite sums of distinct generators, truncated to [0, horizon)."""
    gens = list(generators)
    if not gens:
        raise InputError("fs_set needs at least one generator")
    if any((not isinstance(g, int)) or g < 1 for g in gens):
        raise InputError("generators must be positive integers")
    sums = {0}
    for g in gens:
        sums |= {s + g for s in sums if s + g < horizon}
    sums.discard(0)
    return IndexSet.of(horizon, sums)


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
    if not members:
        return (False, ())

    def extend(chosen: list[int], sums: frozenset, start: int):
        if len(chosen) == depth:
            return tuple(chosen)
        for idx in range(start, len(members)):
            p = members[idx]
            new = {p} | {t + p for t in sums}
            if all(v in s.members for v in new):
                got = extend(chosen + [p], sums | frozenset(new), idx)
                if got is not None:
                    return got
        return None

    witness = extend([], frozenset(), 0)
    return (witness is not None, witness or ())


def difference_set(s: IndexSet) -> IndexSet:
    """All nonnegative differences of members, at the same horizon."""
    mem = s.sorted_members()
    out = set()
    for i in mem:
        for j in mem:
            if i >= j and i - j < s.horizon:
                out.add(i - j)
    return IndexSet.of(s.horizon, out)


@dataclass(frozen=True)
class FamilyClassifier:
    """One of the built-in tail families, with its horizon thresholds.

    kind: "infinite" | "cofinite" | "syndetic" | "thick" | "ip" | "custom"
    """

    kind: str
    threshold: int | None = None
    depth: int = 3
    predicate: object = None
    name: str = ""

    KINDS = ("infinite", "cofinite", "syndetic", "thick", "ip", "custom")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")
        if self.kind == "custom" and self.predicate is None:
            raise InputError("custom family needs a predicate")

    def classify(self, s: IndexSet) -> tuple[bool, dict]:
        """(verdict, detail); detail is JSON-ready and names thresholds."""
        detail = {"kind": self.kind, "horizon": s.horizon}
        if self.kind == "infinite":
            res = classify_infinite(s, self.threshold)
            detail.update(thresholds={"tail_window": self.threshold if self.threshold is not None else s.horizon // 2},
                          witness=res.tail_count)
            return res.ok, detail
        if self.kind == "cofinite":
            res = classify_cofinite(s, self.threshold)
            detail.update(thresholds={"tail_bound": self.threshold if self.threshold is not None else s.horizon // 2},
                          witness=res.tail_start)
            return res.ok, detail
        if self.kind == "syndetic":
            res = classify_syndetic(s, self.threshold)
            detail.update(thresholds={"gap": self.threshold if self.threshold is not None else default_window(s.horizon)},
                          witness=res.gap)
            return res.ok, detail
        if self.kind == "thick":
            res = classify_thick(s, self.threshold)
            detail.update(thresholds={"run": self.threshold if self.threshold is not None else default_window(s.horizon)},
                          witness=res.max_run)
            return res.ok, detail
        if self.kind == "ip":
            ok, witness = contains_ip(s, self.depth)
            detail.update(thresholds={"depth": self.depth}, witness=list(witness))
            return ok, detail
        ok = bool(self.predicate(s))
        detail.update(witness=None)
        return ok, detail

    def verdict_json(self, s: IndexSet) -> dict:
        ok, detail = self.classify(s)
        return {"kind": self.kind, "verdict": "holds" if ok else "fails",
                "witness": detail.get("witness"),
                "horizon": s.horizon,
                "thresholds": detail.get("thresholds", {})}


def syndetic_family(threshold: int | None = None) -> FamilyClassifier:
    return FamilyClassifier("syndetic", threshold)


def thick_family(threshold: int | None = None) -> FamilyClassifier:
    return FamilyClassifier("thick", threshold)


def cofinite_family(threshold: int | None = None) -> FamilyClassifier:
    return FamilyClassifier("cofinite", threshold)


def infinite_family(threshold: int | None = None) -> FamilyClassifier:
    return FamilyClassifier("infinite", threshold)


def ip_family(depth: int = 3) -> FamilyClassifier:
    return FamilyClassifier("ip", depth=depth)


def dual_contains(s: IndexSet, family: FamilyClassifier) -> bool:
    """Dual-family membership via the complement characterization:
    the set meets every member of the family iff its complement is not in
    the family.  Requires a built-in family (complement logic is known);
    thresholds are shared between the two sides.
    """
    if family.kind == "custom":
        raise InputError("dual membership needs a built-in family")
    ok, _ = family.classify(s.complement())
    return not ok
