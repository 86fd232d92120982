"""The one percentile implementation of the codebase.

:meth:`~repro.replication.results.RunStatistics.percentile` (which the
Fig. 9 and partition experiments read) and the perf ledger both delegate
here (floor/ceil linear interpolation, empty sample -> 0.0, fraction outside
``[0, 1]`` -> ``ValueError``).
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of ``values`` (linear interpolation).

    ``fraction`` must lie in ``[0, 1]``; an empty sample yields 0.0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(
            f"percentile fraction must be in [0, 1], got {fraction!r}")
    ordered = sorted(values)
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
