"""The Fig. 9 experiment: response time vs. offered load.

The paper's simulation compares group-safe replication (Fig. 8), group-1-safe
replication (Fig. 2) and lazy (1-safe) replication on the Table 4
configuration, for offered loads between 20 and 40 transactions per second.
The reported metric is the mean client response time of committed
transactions; the paper additionally notes that the group-safe technique's
abort rate stays constant slightly below 7 %.

:func:`run_load_point` evaluates one (technique, load) pair;
:func:`figure9_sweep` produces the whole figure.  The defaults use the exact
Table 4 parameters; tests and benchmarks pass shorter durations to keep the
wall-clock time reasonable (the shapes are already stable with a few hundred
transactions per point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..replication.cluster import ReplicatedDatabaseCluster
from ..replication.results import RunStatistics
from ..workload.clients import OpenLoopClientPool
from ..workload.params import SimulationParameters

#: The three curves of Fig. 9.
FIGURE9_TECHNIQUES = ("group-safe", "group-1-safe", "1-safe")

#: The load points of Fig. 9's X axis (transactions per second).
FIGURE9_LOADS = tuple(range(20, 41, 2))


@dataclass
class LoadPoint:
    """One point of a Fig. 9 curve."""

    technique: str
    offered_load_tps: float
    mean_response_time_ms: float
    p90_response_time_ms: float
    abort_rate: float
    committed_transactions: int
    aborted_transactions: int
    achieved_throughput_tps: float
    simulated_ms: float


def run_load_point(technique: str, load_tps: float,
                   params: Optional[SimulationParameters] = None,
                   seed: int = 0, duration_ms: float = 30_000.0,
                   warmup_ms: float = 5_000.0) -> LoadPoint:
    """Simulate one technique at one offered load and summarise the run."""
    parameters = params or SimulationParameters.paper()
    cluster = ReplicatedDatabaseCluster(technique, params=parameters, seed=seed)
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=load_tps)
    clients.start()
    cluster.run(until=duration_ms)

    stats = RunStatistics.of(clients.results, warmup_ms, duration_ms)
    return LoadPoint(
        technique=technique,
        offered_load_tps=load_tps,
        mean_response_time_ms=stats.mean_response_time,
        p90_response_time_ms=stats.percentile(0.9),
        abort_rate=stats.abort_rate,
        committed_transactions=stats.measured_commits,
        aborted_transactions=stats.measured_aborts,
        achieved_throughput_tps=stats.achieved_throughput_tps,
        simulated_ms=duration_ms)


def figure9_sweep(loads: Sequence[float] = FIGURE9_LOADS,
                  techniques: Sequence[str] = FIGURE9_TECHNIQUES,
                  params: Optional[SimulationParameters] = None,
                  seed: int = 0, duration_ms: float = 30_000.0,
                  warmup_ms: float = 5_000.0) -> List[LoadPoint]:
    """Evaluate every (technique, load) combination of Fig. 9."""
    points: List[LoadPoint] = []
    for technique in techniques:
        for load in loads:
            points.append(run_load_point(technique, load, params=params,
                                         seed=seed, duration_ms=duration_ms,
                                         warmup_ms=warmup_ms))
    return points


def curves(points: Sequence[LoadPoint]) -> Dict[str, List[LoadPoint]]:
    """Group sweep points into per-technique curves sorted by load."""
    by_technique: Dict[str, List[LoadPoint]] = {}
    for point in points:
        by_technique.setdefault(point.technique, []).append(point)
    for series in by_technique.values():
        series.sort(key=lambda point: point.offered_load_tps)
    return by_technique


def crossover_load(points: Sequence[LoadPoint], first: str = "group-safe",
                   second: str = "1-safe") -> Optional[float]:
    """The lowest load at which ``first`` stops outperforming ``second``.

    Returns ``None`` if ``first`` stays faster over the whole sweep — the
    paper reports a crossover around 38 tps for group-safe vs. lazy.
    """
    series = curves(points)
    if first not in series or second not in series:
        return None
    second_by_load = {point.offered_load_tps: point
                      for point in series[second]}
    for point in series[first]:
        other = second_by_load.get(point.offered_load_tps)
        if other is None:
            continue
        if point.mean_response_time_ms > other.mean_response_time_ms:
            return point.offered_load_tps
    return None


def render_figure9(points: Sequence[LoadPoint]) -> str:
    """Text rendering of the Fig. 9 series (used by benchmarks and examples)."""
    series = curves(points)
    loads = sorted({point.offered_load_tps for point in points})
    header = f"{'load (tps)':>10} | " + " | ".join(
        f"{technique:>14}" for technique in series)
    lines = [header, "-" * len(header)]
    for load in loads:
        cells = []
        for technique in series:
            match = [point for point in series[technique]
                     if point.offered_load_tps == load]
            cells.append(f"{match[0].mean_response_time_ms:>11.1f} ms"
                         if match else f"{'—':>14}")
        lines.append(f"{load:>10g} | " + " | ".join(cells))
    abort_lines = []
    for technique, serie in series.items():
        rates = [point.abort_rate for point in serie]
        if rates:
            abort_lines.append(f"  {technique}: "
                               f"{min(rates):.1%} – {max(rates):.1%}")
    if abort_lines:
        lines.append("")
        lines.append("abort rates across the sweep:")
        lines.extend(abort_lines)
    return "\n".join(lines)
