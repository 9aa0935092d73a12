"""Order statistics for the benchmark: medians, quartiles, tail percentiles.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it, so a p90 needs at least 100 samples and a p99 at least 1000.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default 'linear' method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def percentile_defined(n: int, p: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when a sample of size n has at least min_beyond values beyond p."""
    return n * (100.0 - p) / 100.0 >= min_beyond - 1e-9


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf
