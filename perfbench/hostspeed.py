"""A fixed pure-Python reference kernel that gauges how fast the host
runs interpreter code at the moment.

The benchmark's host is shared: the same code runs up to twice as fast
or as slow from one second to the next, and its level drifts over
minutes.  ``child.py`` times this kernel right before and right after
each timed call and between the timed call's operations, and
``run.py`` scales the time between two samples by the reference
kernel time over the samples' mean.  The kernel uses no simulator
code, so a change to the simulator moves the call's time only.

The kernel mixes what the simulator's hot loops do: method calls on
small slotted objects, integer arithmetic, dict updates and reads from
a list larger than the L2 cache.
"""

from __future__ import annotations

import time

#: Loop trips of one kernel call; about 0.05-0.1 s on a 2.1 GHz Xeon.
TRIPS = 60_000
#: Entries of the list read at random, so the kernel leaves L2.
TABLE = 1 << 18


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def bump(self, amount: int) -> int:
        self.value = (self.value * 5 + amount) & 0xFFFF
        return self.value


def kernel() -> int:
    """One call of the reference kernel; returns a checksum."""
    table = list(range(1000, 1000 + TABLE))
    cells = [_Cell(k) for k in range(256)]
    counts: dict = {}
    index = 1
    total = 0
    for i in range(TRIPS):
        index = (index * 1103515245 + 12345) & (TABLE - 1)
        word = table[index]
        key = word & 1023
        counts[key] = counts.get(key, 0) + cells[i & 255].bump(word)
        total += counts[key] & 0xFF
    return total


def sample(count: int) -> list:
    """Host seconds of ``count`` consecutive kernel calls."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
