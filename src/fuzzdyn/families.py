"""Index sets and the built-in families of subsets of the times N.

A return-time set of an oracle is eventually periodic: from its preperiod
q on, n is a member iff n + p is, for its period p.  Each built-in family
is decided on such a set by its members in the first period [q, q + p):

* infinite and syndetic: some member (a nonempty periodic part has bounded
  gaps);
* cofinite and thick: every n;
* ip (contains every finite sum of some infinite set of positive
  integers): the one multiple of p, by the IP residue lemma (README).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError


def _checked_horizon(horizon: int) -> int:
    if horizon < 1:
        raise InputError("horizon must be positive")
    return horizon


@dataclass(frozen=True)
class IndexSet:
    """Subset of {0, ..., horizon-1}, a return-time set materialized up to
    a horizon.
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

    def __contains__(self, n: int) -> bool:
        return n >= 0 and self.bits >> n & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()


#: the families, each mapped to whether a member set holds every time of
#: its first period (True) or one of its times (False)
KINDS = {"infinite": False, "cofinite": True, "syndetic": False,
         "thick": True, "ip": False}


@dataclass(frozen=True)
class FamilyClassifier:
    """One of the built-in families.

    kind: "infinite" | "cofinite" | "syndetic" | "thick" | "ip"
    """

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")

    @property
    def full(self) -> bool:
        """Does a member set hold every time of ``mask``, not just one."""
        return KINDS[self.kind]

    def mask(self, pre: int, per: int) -> int:
        """The times that decide a set periodic from ``pre`` with period
        ``per``: the first period [pre, pre + per), or for ``ip`` the one
        multiple of per in it."""
        if self.kind == "ip":
            return 1 << -(-pre // per) * per
        return ((1 << per) - 1) << pre


def _extend(bits: int, pre: int, per: int, bound: int) -> int:
    """The bits below ``bound`` of the set whose bits below pre + per are
    those of ``bits`` and that repeats with period ``per`` from ``pre``
    on."""
    if bound > pre + per:
        copies = -(-(bound - pre) // per)
        repunit = ((1 << per * copies) - 1) // ((1 << per) - 1)
        period = bits >> pre & (1 << per) - 1
        bits = (bits & (1 << pre) - 1) | period * repunit << pre
    return bits & ((1 << max(bound, 0)) - 1)
