"""A canonical traced scenario shared by the two loss-matrix CLIs.

The ``--trace <path>`` flag of ``failure_matrix`` and
``partition_failure_matrix`` funnels through :func:`write_scenario_trace`:
one mixed 2PC + migration run (the same shape as the kernel-determinism
golden scenario — four range shards, a Zipf hot head, cross-partition
traffic, one mid-run ``rebalance()``) executed with :meth:`~repro.partition.cluster.PartitionedCluster.
enable_observability`, exported as Chrome trace-event JSON next to a
plain-text critical-path report.  (``partition_scaling --trace`` traces its
own largest sweep point instead.)

The scenario deliberately exercises every instrumented layer — fast-path
submit/respond, 2PC prepare/decision/branch installs, atomic broadcast,
WAL group commit, buffer I/O, and the migration copy/fence/epoch phases —
so the exported trace demonstrates the whole span vocabulary in one file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

from ..obs.export import write_chrome_trace, write_critical_path_report
from ..obs.tracer import Observability
from ..partition.cluster import PartitionedCluster
from ..partition.workload import PartitionedOpenLoopClients
from ..workload.params import SimulationParameters


def run_traced_scenario(seed: int = 7, rebalance_at_ms: float = 1_500.0,
                        duration_ms: float = 4_000.0
                        ) -> Tuple[Observability, PartitionedOpenLoopClients]:
    """Run the mixed 2PC + migration scenario (group-safe, 120 tps) with
    tracing enabled.

    Returns the :class:`~repro.obs.tracer.Observability` holding the span
    forest and the client pool whose answers the critical-path trees must
    reconcile with.
    """
    parameters = SimulationParameters.small(
        server_count=3, item_count=240).with_overrides(
        partition_count=4, zipf_skew=1.1, cross_partition_probability=0.1)
    cluster = PartitionedCluster("group-safe", params=parameters, seed=seed,
                                 strategy="range")
    observability = cluster.enable_observability()
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=120.0)
    clients.start()
    cluster.run(until=rebalance_at_ms)
    cluster.rebalance()
    cluster.run(until=duration_ms)
    return observability, clients


def write_scenario_trace(path, seed: int = 7) -> Path:
    """Run the traced scenario and export it to ``path``.

    Writes the Chrome trace-event JSON at ``path`` (open it in Perfetto or
    ``chrome://tracing``) and the plain-text critical-path report next to
    it with a ``.txt`` suffix.  Returns the trace path.
    """
    trace_path = Path(path)
    observability, clients = run_traced_scenario(seed=seed)
    committed = sum(answer.committed for answer in clients.results)
    write_chrome_trace(trace_path, observability,
                       metadata={"scenario": "mixed-2pc-migration",
                                 "technique": "group-safe", "seed": seed,
                                 "committed": committed})
    write_critical_path_report(trace_path.with_suffix(".txt"), observability)
    return trace_path


def maybe_write_scenario_trace(path: Optional[str],
                               seed: int = 7) -> Optional[Path]:
    """``write_scenario_trace`` guarded on ``path`` being set (CLI helper)."""
    if not path:
        return None
    written = write_scenario_trace(path, seed=seed)
    print(f"trace written to {written} "
          f"(critical-path report: {written.with_suffix('.txt')})")
    return written
