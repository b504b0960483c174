"""Machine-speed sampling, so that timings survive a drifting machine.

Shared machines change speed by a quarter and more from one second to the
next, which swamps the run-to-run comparisons the benchmark exists for.  So
while an operation runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` and runs a fixed pure-Python kernel with the same
instruction mix as fuzzdyn's hot paths: Fraction arithmetic and comparison,
tuple and frozenset hashing, dict updates, integer bit operations.  The
kernel's durations over the operation measure the machine's speed during
it.  An operation that took ``t`` seconds outside the interrupts, while the
harmonic mean of the kernel's durations was ``r`` seconds, is reported as
``t * NOMINAL_S / r``: seconds on a machine where the kernel takes
``NOMINAL_S``.  The kernel is part of the benchmark, not of fuzzdyn, so no
change to the program can move it.  It touches a few dozen keys, so it adds
nothing to peak memory.  Interrupts run on the main thread between
bytecodes; no thread is started.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: kernel time, in seconds, of the nominal machine that scaled times assume
NOMINAL_S = 0.001
#: loop length of the kernel: about NOMINAL_S on a 2-core Xeon VM
ROUNDS = 200
#: time between two kernel samples while an operation runs; the samples
#: take about 4% of the operation's time, which is subtracted from it
INTERVAL_S = 0.025


def kernel() -> int:
    table: dict = {}
    best = Fraction(0)
    for i in range(1, ROUNDS):
        f = Fraction(i % 17, i % 5 + 1)
        key = (f, i & 3)
        table[key] = table.get(key, 0) + 1
        if f > best:
            best = f
        bits = (i * 2654435761) & 0xFFFF
        table[frozenset((bits & 7, bits & 3, bits >> 12))] = bits.bit_count()
    return len(table)


def kernel_seconds(repeat: int) -> float:
    """Mean wall time of ``repeat`` kernel runs now."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        kernel()
    return (time.perf_counter() - t0) / repeat


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at nominal speed, given the kernel time measured then."""
    return seconds * NOMINAL_S / kernel_s


class Sampler:
    """Kernel samples taken by a ``SIGALRM`` timer between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """Stop sampling; the seconds spent sampling, and the samples."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # the samples are uniform in time, not in work: their harmonic mean
        # is the operation's time per unit of work
        mean = statistics.harmonic_mean(self.samples) if self.samples else None
        return {"sampling_s": self.spent, "samples": len(self.samples),
                "kernel_s": mean}
