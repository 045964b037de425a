"""How fast the host runs while the benchmark does: a fixed reference loop.

The reference host is a 2-core VM on a machine shared with other
tenants.  Its speed drifts by a quarter to a third over minutes as they
come and go, and every workload slows together.  A run's figures then
follow the host more than the program.  :class:`HostSpeed` times a fixed
pure-Python loop at points spread over the run, on each CPU the run
uses; the mean of those times against the loop's time on the quiet
reference host is the run's *slowdown*.  ``run.py`` divides the gated
times by it and multiplies the gated rates by it.

The loop is this file's own code, so no change to the program can move
it: a program change moves the figures, a busy neighbour moves the loop
and the figures together.  The collector is off while it runs, so the
size of the program's heap does not reach it either.
"""

from __future__ import annotations

import gc
import os
import time
from typing import List, Sequence

#: About the loop's mean time on the reference host (2 vCPUs, Intel Xeon,
#: CPython 3.11) when its neighbours are quiet; it read 5.3 ms on average
#: in a busy hour.  It sets the scale of the scaled figures, not their
#: spread.
REFERENCE_MS = 4.0

#: Timings per CPU at each sampling point.
REPEATS = 2


class _Item:
    __slots__ = ("value", "key")

    def __init__(self, value: int, key: str) -> None:
        self.value = value
        self.key = key


def _by_key(item: _Item) -> str:
    return item.key


def reference_loop() -> int:
    """Fixed work in the mix the program does: formatting, dict and slot
    lookups, small objects, a sort."""
    table = {}
    items = []
    for i in range(4000):
        key = "k%d" % (i * 7919 % 4000)
        table[key] = i
        items.append(_Item(i, key))
    total = 0
    for item in items:
        total += table[item.key] - item.value
    items.sort(key=_by_key)
    return total


class HostSpeed:
    """Reference-loop times over one run, on the given CPUs."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.samples_ms: List[float] = []

    def sample(self) -> None:
        """Time the loop ``REPEATS`` times on each CPU, then put the
        calling process back on the CPUs it had."""
        home = os.sched_getaffinity(0)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                for _ in range(REPEATS):
                    started = time.perf_counter_ns()
                    reference_loop()
                    self.samples_ms.append((time.perf_counter_ns() - started) / 1e6)
        finally:
            os.sched_setaffinity(0, home)
            if gc_was_enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Mean loop time over the reference host's: 1.3 means the host ran
        this run 30 % slower than the reference host does when quiet."""
        if not self.samples_ms:
            raise ValueError("no host-speed samples taken")
        return sum(self.samples_ms) / len(self.samples_ms) / REFERENCE_MS
