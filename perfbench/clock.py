"""Host-speed-normalised timing.

On a shared host the speed of a core drifts by up to half over seconds to
tens of seconds, as other tenants come and go.  A fixed pure-Python loop
slows down with it.  On a 2-core shared machine, in a busy spell, the
medians of 20-second windows of an A6 certificate check, an order-168
check, ``search-lemma-4.4`` and a fresh-process ``factorix verify`` varied
by 33% to 48% (quartile distance over median) in wall time, and by 6% to
16% once divided by the time of the loop below.

``Clock`` times that loop at operation boundaries, at most every
``CAL_EVERY_S``, and reports a measured interval in reference seconds: its
wall time scaled by ``REF_CAL_S`` over the median loop time of the
calibrations from ``CAL_WINDOW_S`` before it to ``CAL_WINDOW_S`` after it
(at least the nearest one on each side).  Loop runs that fall inside an
interval are cut out of it.  A reference second is a wall second on a host
where the loop takes ``REF_CAL_S``.  The benchmark records wall times too,
in its run record.
"""
from __future__ import annotations

import array
import bisect
import itertools
import random
import statistics
import time

REF_CAL_S = 0.018
CAL_EVERY_S = 0.4
CAL_WINDOW_S = 1.0

_S5 = list(itertools.permutations(range(5)))
_CHASE_BITS = 18
_CHASE_STEPS = 40_000


def _chase_table() -> array.array:
    """One cycle through 2**_CHASE_BITS slots in a fixed shuffled order,
    built in two 2 MB arrays so that it adds little to the peak RSS."""
    order = array.array("q", range(1 << _CHASE_BITS))
    random.Random(0).shuffle(order)
    nxt = array.array("q", bytes(len(order) * order.itemsize))
    for k in range(len(order)):
        nxt[order[k - 1]] = order[k]
    return nxt


def _loop(nxt: array.array) -> int:
    """Three kinds of work whose speed tracks the host's in different ways:
    dictionary updates and integer arithmetic; a multiplication table of
    permutation tuples, as the program builds them; and a pointer chase
    through a table larger than the core's own caches, which tracks memory
    latency (fresh processes start at its pace)."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(12_000):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 7
    index = {p: k for k, p in enumerate(_S5)}
    rows = [[index[tuple([q[x] for x in p])] for q in _S5] for p in _S5]
    j = 0
    for _ in range(_CHASE_STEPS):
        j = nxt[j]
    return acc + len(rows) + j


class Clock:
    """``every`` is the least time between calibrations that ``tick``
    makes; traced runs pass ``math.inf`` so that no calibration lands inside
    a traced span."""

    def __init__(self, every: float = CAL_EVERY_S):
        self.every = every
        self._chase = _chase_table()
        self._starts: list[float] = []
        self._durs: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        _loop(self._chase)
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._durs.append(t1 - t0)

    def tick(self) -> None:
        """Calibrate if the last calibration ended ``every`` ago or more."""
        if time.perf_counter() - (self._starts[-1] + self._durs[-1]) >= self.every:
            self.calibrate()

    def seconds(self, intervals) -> float:
        """Reference seconds of the work in the (start, end) wall intervals.
        Call ``calibrate`` after the last interval has ended."""
        return sum(self._span(a, b) for a, b in intervals)

    def _span(self, a: float, b: float) -> float:
        starts, durs = self._starts, self._durs
        i = bisect.bisect_left(starts, a)
        total = 0.0
        while i < len(starts) and starts[i] + durs[i] <= b:
            total += self._scaled(a, starts[i], i)
            a = starts[i] + durs[i]
            i += 1
        return total + self._scaled(a, b, i)

    def _scaled(self, a: float, b: float, after: int) -> float:
        """Reference seconds of [a, b]; calibration ``after`` is the first
        one that starts at or after b."""
        starts = self._starts
        lo = min(bisect.bisect_left(starts, a - CAL_WINDOW_S), after - 1)
        hi = max(bisect.bisect_right(starts, b + CAL_WINDOW_S), after + 1)
        near = self._durs[max(lo, 0):hi]
        return (b - a) * REF_CAL_S / statistics.median(near)

    @property
    def calibrations(self) -> int:
        return len(self._durs)
