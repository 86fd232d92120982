"""The four ledger workloads and the child process that runs one pass of one.

A workload is a fixed list of *cells*; a cell builds one simulated world,
runs it for warm-up + window + drain of simulated time, reads the layers'
counters, optionally audits the outputs, and is discarded.  ``python cells.py
--workload NAME --seed S`` runs every cell of one workload once (one *pass*)
and prints one JSON object on its last line; :mod:`run` starts it as a fresh
subprocess per pass and combines the passes.

Everything the simulated system sees is generated from the cell seed
(``S, S+1, ...``); wall-clock timers are read only around calls into the
program, never inside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_CHILD_STARTED = time.perf_counter()
REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.audit import SafetyAudit  # noqa: E402
from repro.experiments.rebalance import audit_commit_integrity  # noqa: E402
from repro.partition.cluster import PartitionedCluster  # noqa: E402
from repro.partition.workload import PartitionedOpenLoopClients  # noqa: E402
from repro.replication.cluster import ReplicatedDatabaseCluster  # noqa: E402
from repro.workload.clients import OpenLoopClientPool  # noqa: E402
from repro.workload.params import SimulationParameters  # noqa: E402

IMPORT_S = time.perf_counter() - _CHILD_STARTED

import layers  # noqa: E402  (sibling module; needs repro on sys.path)

#: Latency limit (simulated ms) of the SLO metrics.
SLO_MS = 250.0


@dataclass(frozen=True)
class Timing:
    """Simulated-time shape of one cell (ms)."""

    warmup: float
    window: float
    drain: float
    #: Host-timer granularity: the run is timed in slices of this many
    #: simulated ms, so the runner can take minima per slice, not per cell.
    step: float

    @property
    def window_end(self) -> float:
        return self.warmup + self.window

    @property
    def end(self) -> float:
        return self.warmup + self.window + self.drain


FULL = Timing(warmup=2_000.0, window=20_000.0, drain=2_000.0, step=2_000.0)
SMOKE = Timing(warmup=250.0, window=1_250.0, drain=500.0, step=250.0)


@dataclass
class World:
    """One built cell: the cluster facade, its clients and scripted faults."""

    cluster: object
    clients: object
    #: ``(simulated ms, callable)`` — run between two ``run(until=...)`` calls.
    actions: List[Tuple[float, Callable[[], None]]]
    #: Filled by the actions (crash / recover / migration bookkeeping).
    notes: Dict[str, float]


#: Smoke cells shrink the database (not the cluster) so a cell builds in ms.
SMOKE_ITEMS = 1_000


def _single_group(technique: str, load_tps: float, seed: int, smoke: bool,
                  **overrides) -> World:
    if smoke:
        overrides["item_count"] = SMOKE_ITEMS
    params = SimulationParameters.paper().with_overrides(**overrides)
    cluster = ReplicatedDatabaseCluster(technique, params=params, seed=seed)
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=load_tps)
    clients.start()
    return World(cluster, clients, [], {})


def build_paper_group_safe(seed: int, timing: Timing, smoke: bool) -> World:
    return _single_group("group-safe", 30.0, seed, smoke)


def build_paper_lazy_1safe(seed: int, timing: Timing, smoke: bool) -> World:
    return _single_group("1-safe", 30.0, seed, smoke)


def build_paxos_leader_failover(seed: int, timing: Timing,
                                smoke: bool) -> World:
    world = _single_group("group-safe", 30.0, seed, smoke,
                          broadcast_engine="multi-paxos",
                          failure_detector_mode="heartbeat",
                          heartbeat_period=10.0, heartbeat_timeout=50.0)
    cluster, notes = world.cluster, world.notes

    def crash_leader() -> None:
        follower = cluster.server_names()[-1]
        leader = cluster.gcs.endpoint(follower).coordinator()
        notes["leader"] = leader
        notes["crashed_at"] = cluster.sim.now
        cluster.crash_server(leader)

    def recover_leader() -> None:
        notes["recover_called_at"] = cluster.sim.now
        recovery = cluster.recover_server(notes["leader"])
        # Observation only: the callback reads the clock, schedules nothing.
        recovery.add_callback(
            lambda _event: notes.__setitem__("rejoined_at", cluster.sim.now))

    def stop_arrivals() -> None:
        # The pool re-reads ``load_tps`` for every gap (see ``quiesce``).
        world.clients.load_tps = 1e-12

    # The leader stays down for the rest of the window, the arrivals stop at
    # the window's end and the leader rejoins half-way through the drain, an
    # idle group: at the seed commit a transaction in flight when the old
    # leader rejoins may never be answered, or be missing on the rejoined
    # replica (README, "Found while measuring"), and the ledger takes
    # workloads on which no request fails.
    world.actions = [(timing.warmup + timing.window / 3.0, crash_leader),
                     (timing.window_end, stop_arrivals),
                     (timing.window_end + timing.drain / 2.0, recover_leader)]
    return world


def build_partitioned_large_keyspace(seed: int, timing: Timing,
                                     smoke: bool) -> World:
    params = SimulationParameters.small(
        server_count=3, item_count=SMOKE_ITEMS if smoke else 65_536).with_overrides(
        partition_count=4, zipf_skew=0.6, cross_partition_probability=0.1)
    cluster = PartitionedCluster("group-safe", params=params, seed=seed,
                                 strategy="range")
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=40.0)
    clients.start()
    return World(cluster, clients,
                 [(timing.warmup + timing.window * 0.4, cluster.rebalance)],
                 {})


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build a cell and how many cells it has."""

    name: str
    build: Callable[[int, Timing, bool], World]
    cells: int


#: The closed set, in ledger order.  Why each exists is recorded once, in
#: BENCHMARK.json (and at length in README.md).
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper_group_safe", build_paper_group_safe, cells=3),
    Workload("paper_lazy_1safe", build_paper_lazy_1safe, cells=3),
    Workload("paxos_leader_failover", build_paxos_leader_failover, cells=2),
    Workload("partitioned_large_keyspace", build_partitioned_large_keyspace,
             cells=2),
)}


# -- running one cell -------------------------------------------------------------------


class Spans:
    """The runner's own wall-clock spans (kept in memory, parent-linked)."""

    def __init__(self) -> None:
        self.rows: List[dict] = []

    def open(self, name: str, parent: Optional[int] = None) -> int:
        self.rows.append({"id": len(self.rows), "name": name,
                          "parent": parent,
                          "start_s": time.perf_counter() - _CHILD_STARTED,
                          "end_s": None})
        return len(self.rows) - 1

    def close(self, span_id: int) -> float:
        row = self.rows[span_id]
        row["end_s"] = time.perf_counter() - _CHILD_STARTED
        return row["end_s"] - row["start_s"]


def _phase_of(mark: float, timing: Timing) -> str:
    if mark <= timing.warmup:
        return "warm-up"
    return "window" if mark <= timing.window_end else "drain"


def timed_run(world: World, timing: Timing, spans: Spans,
              parent: int) -> Tuple[List[float], Dict[float, int]]:
    """Advance the world to ``timing.end``; wall seconds of every slice.

    Also returns the workload generator's ``generated_count`` at the two
    window boundaries — the open-loop arrival counter, so attempts are
    counted when they were due, whether or not they were ever answered.
    """
    cluster = world.cluster
    marks = {timing.warmup, timing.window_end, timing.end}
    marks.update(at for at, _ in world.actions)
    mark = timing.step
    while mark < timing.end:
        marks.add(mark)
        mark += timing.step
    slices: List[float] = []
    generated: Dict[float, int] = {}
    for mark in sorted(marks):
        span = spans.open(_phase_of(mark, timing), parent)
        cluster.run(until=mark)
        for at, action in world.actions:
            if at == mark:
                action()
        slices.append(spans.close(span))
        generated[mark] = cluster.workload.generated_count
    return slices, generated


def window_outcomes(world: World, timing: Timing,
                    generated: Dict[float, int]) -> dict:
    """What happened to the transactions submitted inside the window."""
    results = world.clients.results
    inside = [r for r in results
              if timing.warmup <= r.submitted_at < timing.window_end]
    committed = [r for r in inside if r.committed]
    attempted = generated[timing.window_end] - generated[timing.warmup]
    return {
        "attempted": attempted,
        "committed": len(committed),
        "aborted": len(inside) - len(committed),
        "unanswered": attempted - len(inside),
        "slo_miss": attempted - sum(1 for r in committed
                                    if r.response_time <= SLO_MS),
        "response_ms": [r.response_time for r in committed],
        # Commits replied at any time of the timed run (warm-up and drain
        # included): the numerator of commits per wall-second.
        "replied_commits": sum(1 for r in results if r.committed),
    }


def quiesce(world: World, settle_ms: float = 3_000.0) -> None:
    """Stop the arrivals and let in-flight work finish before the audit.

    Replica state is only comparable once nothing is being applied.  The
    pools re-read ``load_tps`` for every gap, so a vanishing rate makes the
    arrival after the next one astronomically late.  Everything measured
    was read before this point.
    """
    world.clients.load_tps = 1e-12
    world.cluster.run(until=world.cluster.sim.now + settle_ms)


def audit(world: World) -> dict:
    """Output checks of one finished cell; ``failures`` empty means correct."""
    cluster, clients = world.cluster, world.clients
    failures: List[str] = []
    out: dict = {"failures": failures}
    if isinstance(cluster, PartitionedCluster):
        failures += audit_commit_integrity(cluster, clients)
        if cluster.routing.epoch < 1:
            failures.append("routing epoch never bumped")
        return out
    report = SafetyAudit(cluster).report(clients.results)
    out["lost_confirmed"] = len(report.lost_transactions)
    out["divergent_items"] = len(report.divergent_items)
    out["serializable"] = report.serializable
    if report.lost_transactions:
        failures.append(f"{len(report.lost_transactions)} confirmed "
                        f"transactions lost")
    if cluster.gcs is not None:
        # Lazy replication diverges and re-orders writes by design (Sect. 7
        # of the paper); for it both are counted, not asserted.
        if report.divergent_items:
            failures.append(f"{len(report.divergent_items)} divergent items")
        if not report.serializable:
            failures.append("history is not one-copy serialisable")
    leader = world.notes.get("leader")
    if leader is not None and leader not in cluster.gcs.membership.view:
        failures.append(f"crashed leader {leader} is not back in the view")
    return out


def run_cell(workload: Workload, seed: int, timing: Timing, smoke: bool,
             spans: Spans, parent: int, do_audit: bool,
             hooks: layers.CellHooks = layers.CellHooks()) -> dict:
    """Build, run, read and (optionally) audit one cell."""
    cell_span = spans.open(f"cell:{workload.name}/{seed}", parent)
    gc.collect()
    span = spans.open("build+start", cell_span)
    hooks.before_build()
    world = workload.build(seed, timing, smoke)
    hooks.after_build(world)
    build_s = spans.close(span)
    slices, generated = timed_run(world, timing, spans, cell_span)
    hooks.after_run(world)
    record = {
        "seed": seed,
        "build_s": build_s,
        "slices_s": slices,
        "events": world.cluster.sim.scheduled_events,
        "window": window_outcomes(world, timing, generated),
        "counters": layers.read_counters(world, timing.end),
    }
    if do_audit:
        span = spans.open("audit", cell_span)
        quiesce(world)
        record["audit"] = audit(world)
        spans.close(span)
    spans.close(cell_span)
    return record


def run_pass(workload: Workload, seed: int, smoke: bool, do_audit: bool,
             trace: bool) -> dict:
    """One pass: every cell once — or, traced, the first cell three ways."""
    timing = SMOKE if smoke else FULL
    spans = Spans()
    root = spans.open(f"pass:{workload.name}")
    out: dict = {"workload": workload.name, "import_s": IMPORT_S}
    if trace:
        out["trace"] = layers.traced_cell(
            lambda hooks: run_cell(workload, seed, timing, smoke, spans, root,
                                   False, hooks),
            lambda: run_cell(
                Workload("single_node", _build_single_node, cells=1),
                seed, timing, smoke, spans, root, False))
    else:
        cell_count = 1 if smoke else workload.cells
        out["cells"] = [run_cell(workload, seed + index, timing, smoke, spans,
                                 root, do_audit)
                        for index in range(cell_count)]
    spans.close(root)
    out["spans"] = spans.rows
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _build_single_node(seed: int, timing: Timing, smoke: bool) -> World:
    # The no-replication baseline: one Table 4 server under the load one of
    # the nine servers' clients offers (30 tps / 9).
    return _single_group("group-safe", 30.0 / 9.0, seed, smoke,
                         server_count=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--audit", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(WORKLOADS[args.workload], args.seed, args.smoke,
                      args.audit, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
