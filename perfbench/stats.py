"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values) if values else None


def percentile(values, p: float):
    """Nearest-rank ``p``-th percentile, or None unless at least
    ``TAIL_SAMPLES`` samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]
