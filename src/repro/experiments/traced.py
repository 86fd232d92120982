"""The canonical traced scenario, exported as a Chrome trace.

``python -m repro.experiments.traced PATH`` runs one mixed 2PC + migration
run (the same shape as the kernel-determinism golden scenario — four range
shards, a Zipf hot head, cross-partition traffic, one mid-run
``rebalance()``) with :meth:`~repro.partition.cluster.PartitionedCluster.
enable_observability` and exports it through :func:`write_trace`: Chrome
trace-event JSON at ``PATH`` next to a plain-text critical-path report.
``partition_scaling --trace`` exports its own largest sweep point through
the same writer.

The scenario deliberately exercises every instrumented layer — fast-path
submit/respond, 2PC prepare/decision/branch installs, atomic broadcast,
WAL group commit, buffer I/O, and the migration copy/fence/epoch phases —
so the exported trace demonstrates the whole span vocabulary in one file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.export import write_chrome_trace, write_critical_path_report
from ..obs.tracer import Observability
from ..partition.cluster import PartitionedCluster
from ..partition.workload import PartitionedOpenLoopClients
from ..workload.params import SimulationParameters

#: Seed of the exported scenario.
_SEED = 7


def run_traced_scenario(seed: int = _SEED, rebalance_at_ms: float = 1_500.0,
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
    cluster = PartitionedCluster("group-safe", params=parameters, seed=seed)
    observability = cluster.enable_observability()
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=120.0)
    clients.start()
    cluster.run(until=rebalance_at_ms)
    cluster.rebalance()
    cluster.run(until=duration_ms)
    return observability, clients


def write_trace(path, observability: Observability,
                metadata: Dict[str, Any]) -> Path:
    """Export ``observability`` to ``path`` and say where it went.

    Writes the Chrome trace-event JSON at ``path`` (open it in Perfetto or
    ``chrome://tracing``) and the plain-text critical-path report next to
    it with a ``.txt`` suffix.  Returns the trace path.
    """
    trace_path = Path(path)
    write_chrome_trace(trace_path, observability, metadata=metadata)
    write_critical_path_report(trace_path.with_suffix(".txt"), observability)
    print(f"trace written to {trace_path} "
          f"(critical-path report: {trace_path.with_suffix('.txt')})")
    return trace_path


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry: run the traced scenario and export it to ``PATH``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", metavar="PATH",
                        help="where to write the Chrome trace (the "
                             "critical-path report goes next to it)")
    arguments = parser.parse_args(argv)
    observability, clients = run_traced_scenario()
    committed = sum(answer.committed for answer in clients.results)
    write_trace(arguments.path, observability,
                metadata={"scenario": "mixed-2pc-migration",
                          "technique": "group-safe", "seed": _SEED,
                          "committed": committed})
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
