"""Vertex shifts of finite type as exactly computable substrates.

Points of the genuine system are one-sided infinite symbol sequences; the
finite artifact works with return-time sets of cylinder pairs as bitsets,
decided exactly by word overlap plus path counting in the transition graph.

Membership of each individual n in N([u],[v]) is exact for the infinite
system, and so is every tail: the boolean powers of the adjacency matrix
are eventually periodic, so each N([u],[v]) is too, with a clock read off
the graph (``ShiftSystem.clock``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError
from .families import _extend
from .spaces import _check_states


class ShiftSystem:
    """One-sided vertex shift on a finite transition graph.

    ``edges=None`` means the complete graph with loops (the full shift).
    Every vertex must have in- and out-degree at least one, so each legal
    word extends to an infinite legal point.
    """

    __slots__ = ("alphabet", "resolution", "label", "_succ", "_rows",
                 "_adjacency_clock", "_walk_cache", "_legal", "_pairs")

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
        # row a of the adjacency matrix: the bitset of the successors of a
        self._rows = tuple(sum(1 << syms.index(b) for b in succ[a])
                           for a in syms)
        full = len(pairs) == len(syms) ** 2
        self.label = label or (f"fullshift({len(syms)},k={resolution})" if full
                               else f"sft({len(syms)},k={resolution})")
        self._adjacency_clock: tuple[int, int] | None = None
        self._walk_cache: dict[tuple[str, str], int] | None = None
        self._legal: set[str] = set()
        self._pairs: dict[tuple[str, str], int] = {}

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

    def _step(self, rows: tuple) -> tuple:
        """The rows of A^(k+1) from those of A^k, where row a of A^k is the
        bitset of the symbols that a path of exactly k edges leads to from
        symbol a."""
        out = []
        for row in rows:
            bits = 0
            for b in _members(row):
                bits |= self._rows[b]
            out.append(bits)
        return tuple(out)

    def adjacency_clock(self) -> tuple[int, int]:
        """(pre_A, per_A), the least pair with A^(k + per_A) = A^k for
        every k >= pre_A, for the boolean powers of the adjacency matrix A.
        It is found once, by Brent's repeat detection on the rows that
        ``_walks`` steps, keeping two powers at a time; a walk of more
        than ``spaces.STATE_CAP`` steps raises the bound ``shift clock``."""
        if self._adjacency_clock is None:
            start = tuple(1 << i for i in range(len(self.alphabet)))
            power = per = walked = 1
            slow, fast = start, self._step(start)
            while slow != fast:
                if power == per:        # the saved power moves ahead
                    slow, power, per = fast, 2 * power, 0
                fast = self._step(fast)
                per += 1
                walked += 1
                _check_states("shift clock", walked)
            # two walks per steps apart first meet at the preperiod
            slow, fast, pre = start, start, 0
            for _ in range(per):
                fast = self._step(fast)
            while slow != fast:
                slow, fast = self._step(slow), self._step(fast)
                pre += 1
            self._adjacency_clock = (pre, per)
        return self._adjacency_clock

    def _walks(self) -> dict[tuple[str, str], int]:
        """(a, b) -> bitset whose bit k is set iff a path of exactly k edges
        leads from a to b, for every k below pre_A + per_A; later bits
        repeat with period per_A (``_extend``).  Built once: one bitset per
        ordered symbol pair, k^2 for k symbols."""
        if self._walk_cache is None:
            pre, per = self.adjacency_clock()
            syms = self.alphabet
            walks = {(a, b): 0 for a in syms for b in syms}
            rows = tuple(1 << i for i in range(len(syms)))      # A^0
            for k in range(pre + per):
                for a, row in zip(syms, rows):
                    for b in _members(row):
                        walks[a, syms[b]] |= 1 << k
                rows = self._step(rows)
            self._walk_cache = walks
        return self._walk_cache

    def clock(self) -> tuple[int, int]:
        """(pre, per) of every N([u],[v]) with u and v no longer than the
        resolution: n is a member iff n + per is, for every n >= pre.  For
        n >= len(u) the member test reads A^(n - len(u) + 1), which repeats
        with period per_A from pre_A on, so pre = resolution - 1 +
        max(pre_A, 1)."""
        pre_a, per_a = self.adjacency_clock()
        return self.resolution - 1 + max(pre_a, 1), per_a

    def check_word(self, word: str) -> None:
        """Raise ``InputError`` unless the word is a nonempty legal word no
        longer than the resolution: the words whose cylinders the clock
        covers.  A word that passes is kept, so each is validated once."""
        if word in self._legal:
            return
        if len(word) > self.resolution:
            raise InputError(f"cylinder word {word!r} is longer than the "
                             f"resolution {self.resolution}")
        if not self.is_legal(word):
            raise InputError("cylinder words must be legal and nonempty")
        self._legal.add(word)

    def return_bits(self, u: str, v: str) -> int:
        """N([u], [v]) below the clock's pre + per as a bitset, bit n set iff
        n is an exact return time of the one-sided shift, for words that
        pass ``check_word``.  Each pair's bitset is computed once and kept:
        at most (cylinders)^2 bitsets."""
        bits = self._pairs.get((u, v))
        if bits is None:
            self.check_word(u)
            self.check_word(v)
            bits = self._pairs[u, v] = self._pair_bits(u, v)
        return bits

    def _pair_bits(self, u: str, v: str) -> int:
        """N([u], [v]) below the clock's pre + per for checked words.  For
        n < len(u) the words overlap, and legal words agreeing on their
        overlap merge into a legal word; for n >= len(u) a path of n -
        len(u) + 1 edges must lead from the last symbol of u to the first
        of v.  Since len(u) <= pre, both ranges lie below the clock."""
        bound = sum(self.clock())
        bits = sum(1 << n for n in range(len(u))
                   if u[n:n + len(v)] == v[:len(u) - n])
        paths = _extend(self._walks()[u[-1], v[0]],
                        *self.adjacency_clock(), bound - len(u) + 1)
        return bits | (paths >> 1) << len(u)


def _members(bits: int):
    """The indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def full_shift(symbols: int = 2, resolution: int = 3) -> ShiftSystem:
    alphabet = "".join(str(i) for i in range(symbols))
    if symbols > 10:
        raise InputError("full_shift helper supports at most 10 symbols")
    return ShiftSystem(alphabet, None, resolution)


def golden_mean_shift(resolution: int = 4) -> ShiftSystem:
    """Binary SFT forbidding the word 11."""
    return ShiftSystem("01", [("0", "0"), ("0", "1"), ("1", "0")],
                       resolution, label=f"goldenmean(k={resolution})")
