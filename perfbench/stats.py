"""Latency summaries for the benchmark's timed ops.

Percentiles use the nearest-rank rule on the sorted samples: the
q-quantile of ``n`` samples is the value at rank ``ceil(q * n)``.  A
percentile is only reported when at least :data:`MIN_BEYOND` samples
lie strictly beyond its rank, so the tail it describes is made of
several observations rather than one or two outliers.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported percentile's rank.
MIN_BEYOND = 10


def samples_beyond(count: int, quantile: float) -> int:
    """Samples ranked strictly above the nearest-rank ``quantile``."""
    return count - max(1, math.ceil(quantile * count))


def min_samples_for(quantile: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples past the
    nearest-rank ``quantile``."""
    count = 1
    while samples_beyond(count, quantile) < beyond:
        count += 1
    return count


def tail_percentile(
    samples: list[float], quantile: float, beyond: int = MIN_BEYOND
) -> float:
    """The nearest-rank ``quantile``; raises ``ValueError`` when fewer
    than ``beyond`` samples lie past it."""
    if samples_beyond(len(samples), quantile) < beyond:
        raise ValueError(
            f"p{quantile * 100:g} needs {min_samples_for(quantile, beyond)} "
            f"samples for {beyond} beyond it, got {len(samples)}"
        )
    # The engine's own nearest-rank helper, so the benchmark and the
    # engine's history reports rank samples the same way.
    from repro.obs.metrics import percentiles_of

    return percentiles_of(samples, (quantile,))[0]
