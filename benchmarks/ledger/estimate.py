"""The noise-robust host-time estimator and the determinism check.

Every pass of a workload does bit-identical work, so whatever makes one pass
slower than another is additive noise from the host (a neighbour's burst, a
page-cache miss).  The estimate of a timed piece is therefore its *minimum*
over the passes, and the estimate of a sum is the sum of the pieces' minima:
the finer the pieces, the less a burst that hits every pass somewhere can
move the total.  Pieces here are the slices of a cell's run (see
``cells.timed_run``), each cell's build, and the import.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence


class DeterminismError(AssertionError):
    """Two passes of the same cell disagreed on a deterministic quantity."""


def kth_smallest_sum(samples: Sequence[Sequence[float]], k: int = 0) -> float:
    """Sum over pieces of the ``k``-th smallest value across passes.

    ``samples[p][i]`` is the wall time of piece ``i`` in pass ``p``; ``k=0``
    is the min-of-passes estimate, ``k=1`` the runner-up used for the noise
    figure.  With fewer than ``k+1`` passes the largest value stands in.
    """
    if not samples:
        raise ValueError("no passes to estimate from")
    width = len(samples[0])
    if any(len(row) != width for row in samples):
        raise ValueError("passes timed different numbers of pieces")
    k = min(k, len(samples) - 1)
    return sum(sorted(row[i] for row in samples)[k] for i in range(width))


def host_noise(samples: Sequence[Sequence[float]]) -> float:
    """(second-fastest - fastest) / fastest, both summed piece by piece."""
    fastest = kth_smallest_sum(samples, 0)
    return (kth_smallest_sum(samples, 1) - fastest) / fastest


def _fingerprint(cell: dict) -> dict:
    return {"events": cell["events"], "window": cell["window"],
            "counters": cell["counters"]}


def assert_same_work(passes: Sequence[dict]) -> None:
    """Raise :class:`DeterminismError` unless every pass did the same work.

    Compared per cell: ``sim.scheduled_events``, the in-window outcome
    counts with every committed response time, and every layer counter.
    """
    reference = passes[0]["cells"]
    for number, other in enumerate(passes[1:], start=2):
        if len(other["cells"]) != len(reference):
            raise DeterminismError(
                f"pass {number} ran {len(other['cells'])} cells, pass 1 "
                f"ran {len(reference)}")
        for first, again in zip(reference, other["cells"]):
            expected, got = _fingerprint(first), _fingerprint(again)
            if expected == got:
                continue
            for field in expected:
                if expected[field] != got[field]:
                    raise DeterminismError(
                        f"cell seed {first['seed']}: {field} differs between "
                        f"pass 1 and pass {number} "
                        f"({_brief(expected[field])} vs {_brief(got[field])})")


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def host_estimates(passes: Sequence[dict]) -> Dict[str, float]:
    """Min-of-passes host figures of one workload (seconds, MB, ratio)."""
    runs: List[List[float]] = [
        [piece for cell in one["cells"] for piece in cell["slices_s"]]
        for one in passes]
    setups: List[List[float]] = [
        [one["import_s"]] + [cell["build_s"] for cell in one["cells"]]
        for one in passes]
    return {
        "run_wall_s": kth_smallest_sum(runs),
        "run_wall_median_s": median(sum(row) for row in runs),
        "setup_s": kth_smallest_sum(setups),
        "host_noise": host_noise(runs) if len(passes) > 1 else 0.0,
        "peak_rss_mb": median(one["peak_rss_mb"] for one in passes),
        "first_cell_run_s": kth_smallest_sum(
            [one["cells"][0]["slices_s"] for one in passes]),
    }
