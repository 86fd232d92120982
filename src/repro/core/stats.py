"""Shared summary-statistics helpers.

One percentile implementation for the whole codebase:
``replication/results.py`` (RunStatistics) and ``partition/stats.py``
delegate here (floor/ceil linear interpolation, empty sample -> 0.0,
fraction outside ``[0, 1]`` -> ``ValueError``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of ``values`` (linear interpolation).

    ``fraction`` must lie in ``[0, 1]``; an empty sample yields 0.0.
    """
    ordered = sorted(values)
    return _percentile_sorted(ordered, fraction)


def _percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """Percentile of an already-sorted sample (shared by :func:`summarize`)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(
            f"percentile fraction must be in [0, 1], got {fraction!r}")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Count / mean / sample stdev / min / p50 / p90 / p99 / max of a sample."""
    ordered: List[float] = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n if n else 0.0
    if n < 2:
        stdev = 0.0
    else:
        stdev = math.sqrt(
            sum((value - mean) ** 2 for value in ordered) / (n - 1))
    return {
        "count": float(n),
        "mean": mean,
        "stdev": stdev,
        "min": ordered[0] if ordered else 0.0,
        "p50": _percentile_sorted(ordered, 0.50),
        "p90": _percentile_sorted(ordered, 0.90),
        "p99": _percentile_sorted(ordered, 0.99),
        "max": ordered[-1] if ordered else 0.0,
    }
