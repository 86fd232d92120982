"""Partition-scaling experiment: throughput vs. number of replica groups.

The paper's system is one replica group whose atomic broadcast totally orders
*every* update — the hard scalability ceiling discussed alongside Fig. 9.
This experiment, which the paper never ran, shards the keyspace across
independent replica groups and measures how committed throughput and response
-time percentiles evolve as the partition count grows, with and without
cross-partition transactions (whose two-phase commit re-introduces a
coordination cost the single-group system never pays).

Common random numbers hold across the sweep: every configuration is driven
with the same master seed, so the generated workload differs only where the
partition layout forces it to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..obs.tracer import Observability
from ..partition.cluster import PartitionedCluster
from ..partition.coordinator import CrossPartitionOutcome
from ..partition.workload import PartitionedOpenLoopClients
from ..replication.results import RunStatistics
from ..workload.params import SimulationParameters

#: Partition counts swept by default (1 reproduces the paper's system shape).
PARTITION_COUNTS = (1, 2, 4, 8)
#: Default offered load (tps): saturates one group, leaves eight comfortable.
DEFAULT_LOAD_TPS = 120.0


@dataclass
class PartitionPoint:
    """One measured configuration of the partition sweep."""

    partition_count: int
    technique: str
    cross_partition_probability: float
    offered_load_tps: float
    #: Every answer of the measured window, of both kinds.
    statistics: RunStatistics
    #: The cross-partition answers of the same window.
    cross: RunStatistics
    #: Locally committed transactions per partition in the window (the
    #: replicated copies included, so it measures per-group work, not
    #: client-visible commits).
    per_partition_commits: Dict[int, int]
    #: Number of partitions each cross-partition transaction touches.
    cross_partition_span: int = 2
    #: The span tracer of the run (None when tracing was off).
    obs: Optional[Observability] = None

    @property
    def achieved_throughput_tps(self) -> float:
        """Committed transactions per second at this point."""
        return self.statistics.achieved_throughput_tps


def run_partition_point(technique: str = "group-safe",
                        partition_count: int = 1,
                        load_tps: float = DEFAULT_LOAD_TPS,
                        cross_partition_probability: float = 0.0,
                        cross_partition_span: Optional[int] = None,
                        duration_ms: float = 12_000.0,
                        seed: int = 21,
                        params: Optional[SimulationParameters] = None,
                        observability: bool = False
                        ) -> PartitionPoint:
    """Drive one partitioned configuration and summarise it.

    The first 2 s are warm-up.  With ``observability`` the cluster runs
    under the span tracer; the resulting
    :class:`~repro.obs.tracer.Observability` is reachable as ``point.obs``
    for export.
    """
    warmup_ms = 2_000.0
    parameters = params or SimulationParameters.small(server_count=3,
                                                      item_count=400)
    parameters = parameters.with_overrides(
        partition_count=partition_count,
        cross_partition_probability=cross_partition_probability)
    if cross_partition_span is not None:
        parameters = parameters.with_overrides(
            cross_partition_span=cross_partition_span)
    cluster = PartitionedCluster(technique, params=parameters, seed=seed)
    if observability:
        cluster.enable_observability()
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=load_tps)
    clients.start()
    cluster.run(until=warmup_ms)
    warmup_commits = cluster.commit_counts()
    cluster.run(until=duration_ms)
    cross = [answer for answer in clients.results
             if isinstance(answer, CrossPartitionOutcome)]
    # Local commits are counted since t=0; restrict them to the measured
    # window so work-per-commit ratios compare like with like.
    per_partition_commits = {
        partition_id: count - warmup_commits.get(partition_id, 0)
        for partition_id, count in cluster.commit_counts().items()}
    return PartitionPoint(
        partition_count=partition_count, technique=technique,
        cross_partition_probability=cross_partition_probability,
        offered_load_tps=load_tps,
        statistics=RunStatistics.of(clients.results, warmup_ms, duration_ms),
        cross=RunStatistics.of(cross, warmup_ms, duration_ms),
        per_partition_commits=per_partition_commits,
        cross_partition_span=parameters.cross_partition_span,
        obs=cluster.sim.obs)


def partition_sweep(partition_counts: Sequence[int] = PARTITION_COUNTS,
                    load_tps: float = DEFAULT_LOAD_TPS,
                    cross_partition_probability: float = 0.0,
                    duration_ms: float = 12_000.0,
                    seed: int = 21,
                    params: Optional[SimulationParameters] = None
                    ) -> List[PartitionPoint]:
    """Sweep the partition count at a fixed offered load (group-safe)."""
    return [run_partition_point(
        partition_count=count, load_tps=load_tps,
        cross_partition_probability=cross_partition_probability,
        duration_ms=duration_ms, seed=seed, params=params)
        for count in partition_counts]


#: Spans swept by default for the 2PC work-amplification curve.
SPAN_VALUES = (2, 3, 4)


def span_sweep(spans: Sequence[int] = SPAN_VALUES,
               partition_count: int = 4,
               technique: str = "group-safe",
               load_tps: float = 60.0,
               cross_partition_probability: float = 0.3,
               duration_ms: float = 12_000.0,
               seed: int = 21,
               params: Optional[SimulationParameters] = None
               ) -> List[PartitionPoint]:
    """Sweep the cross-partition span at a fixed offered load.

    A transaction touching ``span`` partitions costs one prepare, one forced
    decision log and ``span`` branch installs — each install replicated on
    every server of its group — so the local work behind one committed
    cross-partition transaction grows linearly with the span.  This sweep
    measures that amplification directly (the ROADMAP "multi-span
    transactions" item).
    """
    points = []
    for span in spans:
        if not 2 <= span <= partition_count:
            raise ValueError(
                f"span {span} out of range [2, {partition_count}]")
        points.append(run_partition_point(
            technique=technique, partition_count=partition_count,
            load_tps=load_tps,
            cross_partition_probability=cross_partition_probability,
            cross_partition_span=span, duration_ms=duration_ms, seed=seed,
            params=params))
    return points


def work_per_commit(point: PartitionPoint) -> float:
    """Local (per-server, per-group) commits behind one client commit."""
    local_work = sum(point.per_partition_commits.values())
    if not point.statistics.measured_commits:
        return 0.0
    return local_work / point.statistics.measured_commits


def render_span_sweep(points: Sequence[PartitionPoint]) -> str:
    """Text rendering of a cross-partition span sweep."""
    header = (f"{'span':>4} | {'xpart %':>7} | {'offered':>8} | "
              f"{'tput tps':>9} | {'cross tput':>10} | {'mean rt':>8} | "
              f"{'work/commit':>11} | {'validation aborts':>17}")
    lines = [header, "-" * len(header)]
    for point in points:
        stats = point.statistics
        lines.append(
            f"{point.cross_partition_span:>4} | "
            f"{point.cross_partition_probability:>7.0%} | "
            f"{point.offered_load_tps:>8.0f} | "
            f"{stats.achieved_throughput_tps:>9.1f} | "
            f"{point.cross.achieved_throughput_tps:>10.1f} | "
            f"{stats.mean_response_time:>8.1f} | "
            f"{work_per_commit(point):>11.2f} | "
            f"{point.cross.abort_reasons.get('xpartition-validation', 0):>17}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry: run one partition sweep, optionally with a traced point.

    ``--trace PATH`` re-runs the largest sweep point with the span tracer
    enabled and writes the Chrome trace-event JSON (plus the critical-path
    report) there.
    """
    import argparse

    from ..gcs.engines import DEFAULT_ENGINE, engine_names

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short windows / fewer points for CI")
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=engine_names(),
                        help="total-order broadcast engine of every group")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--cross", type=float, default=0.1,
                        help="cross-partition probability of the sweep")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace of the largest sweep "
                             "point to PATH (critical-path .txt next to it)")
    arguments = parser.parse_args(argv)
    counts = (1, 2, 4) if arguments.smoke else PARTITION_COUNTS
    duration = 6_000.0 if arguments.smoke else 12_000.0
    # Only materialise a parameter set when deviating from the default
    # engine, so default runs keep run_partition_point's own parameters.
    params = None if arguments.engine == DEFAULT_ENGINE else \
        SimulationParameters.small(server_count=3, item_count=400) \
        .with_overrides(broadcast_engine=arguments.engine)
    points = partition_sweep(partition_counts=counts,
                             cross_partition_probability=arguments.cross,
                             duration_ms=duration, seed=arguments.seed,
                             params=params)
    print(f"engine: {arguments.engine}")
    print(render_partition_sweep(points))
    if arguments.trace:
        from .traced import write_trace
        traced = run_partition_point(
            partition_count=counts[-1],
            cross_partition_probability=arguments.cross,
            duration_ms=duration, seed=arguments.seed, params=params,
            observability=True)
        write_trace(arguments.trace, traced.obs,
                    metadata={"scenario": "partition-scaling",
                              "partitions": counts[-1],
                              "seed": arguments.seed})
    return 0


def render_partition_sweep(points: Sequence[PartitionPoint]) -> str:
    """Text rendering of one partition sweep."""
    header = (f"{'partitions':>10} | {'xpart %':>7} | {'offered':>8} | "
              f"{'tput tps':>9} | {'mean rt':>8} | {'p95 rt':>8} | "
              f"{'p99 rt':>8} | {'aborts':>6}")
    lines = [header, "-" * len(header)]
    for point in points:
        stats = point.statistics
        lines.append(
            f"{point.partition_count:>10} | "
            f"{point.cross_partition_probability:>7.0%} | "
            f"{point.offered_load_tps:>8.0f} | "
            f"{stats.achieved_throughput_tps:>9.1f} | "
            f"{stats.mean_response_time:>8.1f} | "
            f"{stats.percentile(0.95):>8.1f} | "
            f"{stats.percentile(0.99):>8.1f} | "
            f"{stats.measured_aborts:>6}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
