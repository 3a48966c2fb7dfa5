"""A clock that counts reference seconds instead of wall seconds.

The box this benchmark was built on changes speed by about 2x in regimes
that last 5-15 s, and each vCPU does so on its own, so neither a second
core nor CPU time can correct for it.  Instead a fixed reference kernel
runs in short slices on the measured thread itself, about every 20 ms,
driven by a ``SIGALRM`` interval timer.  Each slice takes a fixed amount of
reference work, so its duration says how fast the thread was just then.

``RefClock.now()`` returns reference nanoseconds: wall time with the slices
taken out, scaled by ``NOMINAL_NS / d`` where ``d`` is the median duration
of the last ``WINDOW`` slices.  The median over ~140 ms follows a regime
change within a few slices and ignores one slice that was preempted.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter_ns

# Reference work per slice and the duration it is declared to take.  Both
# are fixed: changing either changes the unit every figure is reported in.
KERNEL_ROUNDS = 48
NOMINAL_NS = 1_000_000
INTERVAL_S = 0.02
WINDOW = 7

# Small, prebuilt, fixed working set: tuple keys into a dict and a frozenset.
_KEYS = tuple((i, (i * 7) % 13, i % 5) for i in range(96))
_TABLE = {k: (j * 2654435761) & 0xFFFF for j, k in enumerate(_KEYS)}
_MEMBERS = frozenset(_KEYS[::3])


def reference_kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Dict and set lookups on prebuilt tuple keys plus integer work.

    Nothing it allocates is tracked by the garbage collector, so the size
    of the measured program's heap cannot change its duration.
    """
    acc = 0
    table = _TABLE
    members = _MEMBERS
    keys = _KEYS
    for _ in range(rounds):
        for k in keys:
            acc = (acc * 33 + table[k]) & 0xFFFFF
            if k in members:
                acc ^= 0x5A5A
    return acc


class RefClock:
    """Reference-time clock for the calling (main) thread.

    Use as a context manager: entering arms the interval timer, leaving
    disarms it and restores the previous ``SIGALRM`` handler.
    """

    def __init__(self) -> None:
        self.slices = array("q")  # duration of every kernel slice, ns
        self.slice_wall_ns = 0  # wall time spent in the handler, ns
        self._recent = [NOMINAL_NS] * WINDOW
        self._factor = 1.0
        self._base = 0.0
        self._wall = perf_counter_ns()
        self._gen = 0
        self._busy = False
        self._previous = None

    def __enter__(self) -> RefClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.burst(WINDOW)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a slice stalled past the next timer expiry
            return
        self._busy = True
        t0 = perf_counter_ns()
        reference_kernel()
        t1 = perf_counter_ns()
        self._base += (t0 - self._wall) * self._factor
        duration = t1 - t0
        self.slices.append(duration)
        recent = self._recent
        recent[len(self.slices) % WINDOW] = duration
        self._factor = NOMINAL_NS / sorted(recent)[WINDOW // 2]
        self._gen += 1
        self._wall = perf_counter_ns()
        self.slice_wall_ns += self._wall - t0
        self._busy = False

    def burst(self, count: int) -> None:
        """Run ``count`` slices back to back, e.g. to fill the window."""
        for _ in range(count):
            self._tick()

    def now(self) -> float:
        """Reference nanoseconds since the clock was made."""
        while True:
            gen = self._gen
            value = self._base + (perf_counter_ns() - self._wall) * self._factor
            if gen == self._gen:
                return value

    def raw(self) -> int:
        """Wall nanoseconds with the slices taken out: what users would see."""
        while True:
            gen = self._gen
            value = perf_counter_ns() - self.slice_wall_ns
            if gen == self._gen:
                return value
