"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "reportable_percentile"]

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, a single slow op moves it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def reportable_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """``percentile(samples, q)``, or None when fewer than
    :data:`MIN_BEYOND` samples lie strictly beyond it."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    return value if beyond >= MIN_BEYOND else None
