"""Machine-speed calibration: a fixed loop timed around and during every timed call.

On a shared machine the speed of a CPU swings, often by up to 2x, for seconds
at a time, and process CPU time slows as much as wall time, so a parse timed
in a slow phase reads up to twice as long as one timed a minute later.  The
benchmark therefore reads the machine's speed with a fixed pure-Python loop
that does the kind of work the parsers do (an LZ78 trie walk: dict lookups,
attribute access, object creation): before and after every timed call, and,
where the caller asks for it, every INTERVAL_S during the call from a SIGALRM
timer.  A reading of r seconds means the machine runs at REF_S / r of the
reference speed; the call's scaled time is its wall time, less the time the
readings during it took, times the mean of those speed ratios.  That is the
time the call would take on a machine that runs the loop in REF_S.  The loop
is part of the benchmark, never of the program, so a change to the program
moves scaled times exactly as it moves wall times.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

# The loop's time on the 2-vCPU machine the baseline was made on, at that
# machine's full speed (the fastest readings it gave).
REF_S = 0.0003
INTERVAL_S = 0.05

_TEXT = tuple(random.Random(1705_09538).randrange(4) for _ in range(8000))


class _Node:
    __slots__ = ("kids",)

    def __init__(self):
        self.kids = {}


def _loop() -> int:
    root = node = _Node()
    phrases = 0
    for c in _TEXT:
        nxt = node.kids.get(c)
        if nxt is None:
            node.kids[c] = _Node()
            phrases += 1
            node = root
        else:
            node = nxt
    return phrases


def reading(loops: int) -> float:
    """The loop's median time over `loops` runs, in seconds."""
    times = []
    for _ in range(loops):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Meter:
    """Times the body of a `with` block and reads the machine's speed around
    it and, if `during`, every INTERVAL_S inside it.  `before` may pass in a
    reading just taken (the previous call's `after`)."""

    def __init__(self, loops: int, before: float | None = None, during: bool = False):
        self.loops = loops
        self.during = during
        self.readings = [] if before is None else [before]
        self.fresh: list[float] = []  # readings this meter took
        self.wall = self.scale = 0.0
        self.after = 0.0
        self._inside = 0.0  # time the readings during the block took
        self._previous = None

    def _read(self) -> float:
        r = reading(self.loops)
        self.readings.append(r)
        self.fresh.append(r)
        return r

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self._read()
        self._inside += perf_counter() - t0

    def __enter__(self):
        if not self.readings:
            self._read()
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        wall = perf_counter() - self._t0
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall = wall - self._inside
        self.after = self._read()
        self.scale = statistics.mean(REF_S / r for r in self.readings)
        return False
