"""Host-speed calibration of the benchmark's wall-clock metrics.

The benchmark runs on shared virtual machines whose speed moves under
it: a fixed pure-Python loop switches between a fast and a ~2x slower
phase from one tenth of a second to the next, in proportions that drift
over minutes, and process CPU time moves with wall time, so the drift
is a slower CPU, not time stolen from the process.  Runs of identical
work took 24-43 s at different times of the same hour.

So every run also times a fixed :func:`kernel` after every op and
around every set-up, outside their timed windows, and reports its
wall-clock metrics at a *reference speed*: an op measured at ``t``
seconds counts ``t * (REFERENCE_KERNEL_S / k) ** KERNEL_EXPONENT``,
where ``k`` is the mean of the kernel times just before and just after
it (a set-up: of ten kernel calls before and ten after).  The kernel
runs no engine code, so a change to the engine moves the scaled figures
as it moves the raw ones.  Raw figures are printed beside the scaled
ones.

The kernel is interpreter work (dict updates, small strings, calls) on
a few hundred bytes, so its time reflects the CPU's speed and not the
cache state an op leaves behind.  The engine feels the slow phase less
than the kernel does: over rounds of ``tpch_warm`` and ``sql_ml``, op
time moved as the 0.6-0.8th power of kernel time, and over 15 runs of
each workload taken across fast and slow periods the run-to-run spreads
were smallest with exponents 0.7-0.8, hence :data:`KERNEL_EXPONENT`.
The kernel allocates no garbage-collected containers, so it neither
triggers nor shifts the engine's garbage collections.
"""

from __future__ import annotations

import time
from typing import Callable

#: Seconds of one :func:`kernel` call at the reference speed: its time in
#: the fast phase of a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest
#: under Python 3.11, whose slow phase takes ~0.5 ms.
REFERENCE_KERNEL_S = 0.25e-3
#: Power of the kernel's speed ratio applied to measured times.
KERNEL_EXPONENT = 0.75
#: Loop iterations of one kernel call.
KERNEL_STEPS = 1000

_KEYS = [f"key{index}" for index in range(64)]


def _step(table: dict, key: str, index: int) -> int:
    table[key] = table.get(key, 0) + index
    return len(str(index))


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Fixed interpreter-bound work: dict updates, small strings, calls."""
    table: dict[str, int] = {}
    total = 0
    for index in range(steps):
        total += _step(table, _KEYS[index & 63], index)
    return total


class HostSpeed:
    """Times the kernel; every call's seconds are kept."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Seconds of every kernel call made.
        self.samples: list[float] = []

    def sample(self, calls: int = 1) -> float:
        """Mean seconds of ``calls`` kernel calls."""
        total = 0.0
        for __ in range(calls):
            start = self.clock()
            kernel()
            elapsed = self.clock() - start
            self.samples.append(elapsed)
            total += elapsed
        return total / calls


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and
    ``after``, scaled to the reference speed."""
    speed = REFERENCE_KERNEL_S * 2.0 / (before + after)
    return seconds * speed**KERNEL_EXPONENT
