"""Vertex shifts of finite type as exactly computable substrates.

Points of the genuine system are one-sided infinite symbol sequences; the
finite artifact works with two views of them:

* a truncated word space of all legal length-k words under the ultrametric
  d(u, v) = 2^-(first disagreement index), which makes cylinder sets honest
  open balls, and
* return-time sets of cylinder pairs as bitsets, decided exactly by word
  overlap plus path counting in the transition graph.

Membership of each individual n in N([u],[v]) is exact for the infinite
system; only claims about tails beyond a scan horizon stay bounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .spaces import MetricSpace

DEFAULT_HORIZON = 64


class ShiftSystem:
    """One-sided vertex shift on a finite transition graph.

    ``edges=None`` means the complete graph with loops (the full shift).
    Every vertex must have in- and out-degree at least one, so each legal
    word extends to an infinite legal point.
    """

    __slots__ = ("alphabet", "resolution", "label", "_succ", "_walk_cache",
                 "_walk_length", "_wspace", "_legal", "_pairs")

    def __init__(self, alphabet: Sequence[str] = "01",
                 edges: Iterable[tuple[str, str]] | None = None,
                 resolution: int = 3, label: str | None = None):
        syms = tuple(alphabet)
        if len(syms) < 1 or len(set(syms)) != len(syms):
            raise InputError("alphabet must be nonempty and duplicate-free")
        if any(not (isinstance(a, str) and len(a) == 1) for a in syms):
            raise InputError("alphabet symbols must be single characters")
        if resolution < 1:
            raise InputError("resolution must be >= 1")
        self.alphabet = syms
        self.resolution = resolution
        if edges is None:
            pairs = {(a, b) for a in syms for b in syms}
        else:
            pairs = {(a, b) for a, b in edges}
            for a, b in pairs:
                if a not in syms or b not in syms:
                    raise InputError(f"edge ({a},{b}) uses unknown symbols")
        succ = {a: tuple(sorted(b for x, b in pairs if x == a)) for a in syms}
        pred = {b: tuple(sorted(a for a, x in pairs if x == b)) for b in syms}
        for a in syms:
            if not succ[a] or not pred[a]:
                raise InputError(f"stranded vertex {a!r}")
        self._succ = succ
        full = len(pairs) == len(syms) ** 2
        self.label = label or (f"fullshift({len(syms)},k={resolution})" if full
                               else f"sft({len(syms)},k={resolution})")
        self._walk_cache: dict[tuple[str, str], int] = {}
        self._walk_length = 0
        self._wspace = None
        self._legal: set[str] = set()
        self._pairs: dict[tuple[str, str], tuple[int, int]] = {}

    def __repr__(self) -> str:
        return f"ShiftSystem({self.label!r})"

    def follows(self, a: str, b: str) -> bool:
        return b in self._succ[a]

    def is_legal(self, word: str) -> bool:
        if not word or any(c not in self._succ for c in word):
            return False
        return all(self.follows(a, b) for a, b in zip(word, word[1:]))

    def legal_words(self, length: int) -> list[str]:
        """All legal words of the given length, lexicographic by alphabet."""
        if length < 1:
            raise InputError("word length must be >= 1")
        words = [a for a in self.alphabet]
        for _ in range(length - 1):
            words = [w + b for w in words for b in self._succ[w[-1]]]
        return words

    def cylinders(self, max_len: int) -> list[str]:
        out: list[str] = []
        for ln in range(1, max_len + 1):
            out.extend(self.legal_words(ln))
        return out

    def word_space(self) -> MetricSpace:
        """Truncated word space: legal length-k words, d = 2^-(first diff)."""
        if self._wspace is None:
            words = self.legal_words(self.resolution)

            def first_diff(u, v):
                for i, (a, b) in enumerate(zip(u, v)):
                    if a != b:
                        return i
                return None

            rows = []
            for u in words:
                row = []
                for v in words:
                    i = first_diff(u, v)
                    row.append(Fraction(0) if i is None else Fraction(1, 2 ** i))
                rows.append(row)
            self._wspace = MetricSpace(words, matrix=rows,
                                       label=f"words({self.label})")
        return self._wspace

    def _walks(self, length: int) -> dict[tuple[str, str], int]:
        """(a, b) -> bitset whose bit k is set iff a path of exactly k edges
        leads from a to b, for every k < ``length``; rebuilt only when a
        longer bitset is asked for.  The cache is bounded: it holds one
        bitset per ordered symbol pair, k^2 for k symbols, each at most
        twice as long as the longest length asked for, since a rebuild
        only runs for a longer ask and at most doubles the kept length."""
        if self._walk_length < length:
            length = max(length, 2 * self._walk_length)
            walks = {(a, b): 0 for a in self.alphabet for b in self.alphabet}
            for a in self.alphabet:
                reach = {a}
                for k in range(length):
                    for b in reach:
                        walks[a, b] |= 1 << k
                    reach = {c for b in reach for c in self._succ[b]}
            self._walk_cache, self._walk_length = walks, length
        return self._walk_cache

    def return_bits(self, u: str, v: str, bound: int) -> int:
        """N([u], [v]) below ``bound`` as a bitset: bit n is set iff n is an
        exact return time of the one-sided shift.

        Each word is validated once: a legal word no longer than the
        resolution is kept, which bounds the set kept by the number of
        cylinders, and any other word is validated at every call.  A pair
        of kept words keeps one bitset, at the longest bound asked for, and
        a shorter bound reads it masked, since N below b is N below b' >= b
        masked to b; so the memo holds at most (cylinders)^2 bitsets,
        whatever the bounds, and an illegal word never enters it."""
        kept = self._pairs.get((u, v))
        if kept is None or kept[0] < bound:
            for word in (u, v):
                if word not in self._legal:
                    if not self.is_legal(word):
                        raise InputError(
                            "cylinder words must be legal and nonempty")
                    if len(word) <= self.resolution:
                        self._legal.add(word)
            kept = (bound, self._pair_bits(u, v, bound))
            if u in self._legal and v in self._legal:
                self._pairs[u, v] = kept
        if kept[0] == bound:
            return kept[1]
        return kept[1] & ((1 << max(bound, 0)) - 1)

    def _pair_bits(self, u: str, v: str, bound: int) -> int:
        """N([u], [v]) below ``bound`` for legal words.  For n < len(u) the
        words overlap, and legal words agreeing on their overlap merge into
        a legal word; for n >= len(u) a path of n - len(u) + 1 edges must
        lead from the last symbol of u to the first of v."""
        bits = sum(1 << n for n in range(min(len(u), bound))
                   if u[n:n + len(v)] == v[:len(u) - n])
        if bound > len(u):
            paths = self._walks(bound - len(u) + 1)[u[-1], v[0]]
            bits |= (paths >> 1) << len(u)
        return bits & ((1 << max(bound, 0)) - 1)


def full_shift(symbols: int = 2, resolution: int = 3) -> ShiftSystem:
    alphabet = "".join(str(i) for i in range(symbols))
    if symbols > 10:
        raise InputError("full_shift helper supports at most 10 symbols")
    return ShiftSystem(alphabet, None, resolution)


def golden_mean_shift(resolution: int = 4) -> ShiftSystem:
    """Binary SFT forbidding the word 11."""
    return ShiftSystem("01", [("0", "0"), ("0", "1"), ("1", "0")],
                       resolution, label=f"goldenmean(k={resolution})")
