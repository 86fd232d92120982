"""Per-layer attribution, read from outside the program.

A layer is a package under ``src/repro/``.  Three sources feed the per-layer
metrics, none of which needs a change inside the program:

* the layers' existing public counters, read after every untraced cell
  (:func:`read_counters`) and asserted identical across passes by the runner;
* pass A of the traced run — the first cell under ``cProfile`` started and
  stopped here, ``tottime`` bucketed by package (:class:`ProfileHooks`);
* pass B — the same cell with the program's own ``Observability`` span
  recorder and ``Simulator.enable_trace()`` attached (:class:`ObserveHooks`).

:func:`per_layer_metrics` turns the three into the named metrics of
``BENCHMARK.json``; the README holds the metric -> end-to-end map.
"""

from __future__ import annotations

import cProfile
import pstats
from statistics import mean
from typing import Callable, Dict, List

from repro.core.stats import percentile
from repro.obs.kernel import profile_kernel_trace
from repro.obs.tracer import STAGES, Observability

#: Packages whose self-time gets a named ``host.self_s.<layer>`` bucket.
LAYERS = ("sim", "network", "gcs", "db", "replication", "partition",
          "workload")
#: Event classes reported as ``sim.events.share.<type>``; the rest is "other".
EVENT_TYPES = ("Timeout", "Request", "Event", "Deferred", "Process")
#: Public entry points whose call counts and cumulative time go to trace.json.
ENTRY_POINTS = (
    ("network/lan.py", "send"), ("network/lan.py", "broadcast"),
    ("gcs/total_order.py", "broadcast"), ("gcs/total_order.py", "acknowledge"),
    ("db/wal.py", "flush"), ("db/wal.py", "force"),
    ("db/buffer.py", "read_item"), ("db/buffer.py", "write_item_sync"),
    ("db/buffer.py", "flush_some"), ("db/items.py", "create"),
    ("replication/base.py", "submit"),
    ("partition/router.py", "classify"), ("partition/router.py", "split"),
)


# -- counters (untraced passes) ---------------------------------------------------------


def read_counters(world, sim_end_ms: float) -> Dict[str, float]:
    """Raw sums of the layers' public counters after one finished cell."""
    cluster, clients, notes = world.cluster, world.clients, world.notes
    groups = getattr(cluster, "groups", [cluster])
    nodes = [node for group in groups for node in group.nodes.values()]
    databases = [db for group in groups for db in group.databases.values()]
    replicas = [r for group in groups for r in group.replicas.values()]
    systems = [group.gcs for group in groups if group.gcs is not None]
    endpoints = [e for gcs in systems for e in gcs.endpoints]
    out: Dict[str, float] = {
        "sim.grants": sum(n.cpu.granted_count + n.disk.granted_count
                          for n in nodes),
        "network.lan_sent": cluster.lan.sent_count,
        "network.lan_dropped": cluster.lan.dropped_count,
        "network.dispatched": sum(r.dispatcher.dispatched_count
                                  for r in replicas),
        "network.cpu_busy_ms": sum(n.cpu.busy_time for n in nodes),
        "network.cpu_capacity_ms": sum(n.cpu.capacity for n in nodes)
        * sim_end_ms,
        "network.disk_busy_ms": sum(n.disk.busy_time for n in nodes),
        "network.disk_capacity_ms": sum(n.disk.capacity for n in nodes)
        * sim_end_ms,
        "network.disk_util_max": max(
            n.disk.busy_time / (n.disk.capacity * sim_end_ms) for n in nodes),
        "gcs.broadcasts": sum(e.broadcast_count for e in endpoints),
        "gcs.acks": sum(e.ack_count for e in endpoints),
        "gcs.replayed": sum(e.replayed_count for e in endpoints),
        "gcs.prepares": sum(getattr(e, "prepare_count", 0)
                            for e in endpoints),
        "gcs.suspicions": sum(g.failure_detector.suspicion_count
                              for g in systems),
        "gcs.injected_crashes": sum(n.crash_count for n in nodes),
        "gcs.view_changes": sum(len(g.membership.history) - 1
                                for g in systems),
        "db.wal_flushes": sum(d.wal.flush_count for d in databases),
        "db.stable_records": sum(len(d.wal.stable_records())
                                 for d in databases),
        "db.read_hits": sum(d.buffer.read_hits for d in databases),
        "db.read_misses": sum(d.buffer.read_misses for d in databases),
        "db.sync_writes": sum(d.buffer.sync_writes for d in databases),
        "db.async_writes": sum(d.buffer.async_writes for d in databases),
        "db.flushed_pages": sum(d.buffer.flushed_pages for d in databases),
        "db.throttle_events": sum(d.buffer.throttle_events
                                  for d in databases),
        "db.deadlocks": sum(d.locks.deadlock_count for d in databases),
        "db.cert_aborts": sum(d.certification_aborts for d in databases),
        "db.items": sum(len(d.items) for d in databases),
        "replication.certified": sum(getattr(r, "certified_count", 0)
                                     for r in replicas),
        "replication.cert_aborts": sum(
            getattr(r, "certification_abort_count", 0) for r in replicas),
        "replication.duplicate_deliveries": sum(
            getattr(r, "duplicate_deliveries", 0) for r in replicas),
        "replication.lazy_batches": sum(getattr(r, "propagated_batches", 0)
                                        for r in replicas),
        "replication.lazy_applied": sum(
            getattr(r, "applied_remote_writesets", 0) for r in replicas),
        "replication.peers": len(replicas) - 1,
        "workload.generated": cluster.workload.generated_count,
    }
    # Failover: the longest stretch without a commit reply between the crash
    # and the recover call (a reply right after the crash may belong to a
    # transaction ordered before it).  Rejoin: recover call -> recovery
    # process done.  Both absent (0) where nothing is crashed.
    crashed_at = notes.get("crashed_at")
    if crashed_at is not None:
        recover_at = notes["recover_called_at"]
        replies = sorted(r.responded_at for r in clients.results
                         if r.committed
                         and crashed_at < r.responded_at <= recover_at)
        out["gcs.failover_ms"] = max(
            later - earlier
            for earlier, later in zip([crashed_at] + replies, replies))
        out["gcs.rejoin_ms"] = notes["rejoined_at"] - recover_at
    router = getattr(cluster, "router", None)
    if router is not None:
        report = cluster.migration_reports[0]
        out.update({
            "partition.single": router.single_partition_count,
            "partition.cross": router.cross_partition_count,
            "partition.wrong_epoch_retries": router.wrong_epoch_retries,
            "partition.xp_committed": cluster.coordinator.committed_count,
            "partition.xp_aborted": cluster.coordinator.aborted_count,
            "partition.epoch_bumps": cluster.routing.epoch,
            "partition.migration_ms": report.duration_ms,
            "partition.fence_ms": report.fence_duration_ms,
            "partition.during_migration_commits":
                clients.during_migration_commits,
            "partition.during_migration_aborts":
                clients.during_migration_aborts,
            "partition.rejected": clients.rejected_count,
        })
    return out


#: Counters that do not add up over cells.
_COMBINE: Dict[str, Callable] = {
    "network.disk_util_max": max,
    "gcs.failover_ms": mean, "gcs.rejoin_ms": mean,
    "partition.migration_ms": mean, "partition.fence_ms": mean,
    "replication.peers": max,
}


def combine_counters(cells: List[dict]) -> Dict[str, float]:
    """Fold the per-cell counter dicts of one pass into workload totals."""
    names = {name for cell in cells for name in cell["counters"]}
    return {name: _COMBINE.get(name, sum)(
        [cell["counters"][name] for cell in cells if name in cell["counters"]])
        for name in sorted(names)}


# -- the traced run ---------------------------------------------------------------------


class CellHooks:
    """What a traced pass attaches around a cell's build and run (no-ops)."""

    def before_build(self) -> None:
        """Called just before the world is constructed."""

    def after_build(self, world) -> None:
        """Called once the world is built and started, before it runs."""

    def after_run(self, world) -> None:
        """Called when the timed run has ended."""


class ProfileHooks(CellHooks):
    """Pass A: cProfile around the build and around the run, separately."""

    def __init__(self) -> None:
        self.build = cProfile.Profile()
        self.run = cProfile.Profile()

    def before_build(self) -> None:
        self.build.enable()

    def after_build(self, world) -> None:
        self.build.disable()
        self.run.enable()

    def after_run(self, world) -> None:
        self.run.disable()

    def result(self) -> dict:
        rows = pstats.Stats(self.run).stats
        self_s = {f"host.self_s.{name}": 0.0
                  for name in LAYERS + ("python", "other")}
        for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) \
                in rows.items():
            self_s[f"host.self_s.{_bucket(filename)}"] += tottime
        return {
            "self_s": self_s,
            "entry_points": _entry_points(rows),
            "build_entry_points": _entry_points(
                pstats.Stats(self.build).stats),
        }


def _bucket(filename: str) -> str:
    head, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if sep:
        package = tail.split("/", 1)[0]
        return package if package in LAYERS else "other"
    # Builtins ("~"), the standard library and the import system are the
    # interpreter's share; the ledger's own frames are "other".
    return "other" if "/benchmarks/ledger/" in filename else "python"


def _entry_points(rows) -> Dict[str, dict]:
    found: Dict[str, dict] = {}
    for (filename, _line, func), (_cc, calls, _tt, cumulative, _callers) \
            in rows.items():
        for suffix, name in ENTRY_POINTS:
            if func == name and filename.endswith("repro/" + suffix):
                row = found.setdefault(
                    f"{suffix[:-3].replace('/', '.')}.{name}",
                    {"calls": 0, "cumulative_s": 0.0})
                row["calls"] += calls
                row["cumulative_s"] += cumulative
    return found


class ObserveHooks(CellHooks):
    """Pass B: the program's own span recorder and event trace, attached."""

    def after_build(self, world) -> None:
        sim = world.cluster.sim
        self.obs = Observability(sim)
        self.events = sim.enable_trace()

    def result(self) -> dict:
        by_type = profile_kernel_trace(self.events)["by_type"]
        total = sum(row["events"] for row in by_type.values())
        shares = {name: by_type.get(name, {"events": 0})["events"] / total
                  for name in EVENT_TYPES}
        shares["other"] = 1.0 - sum(shares.values())
        stages = dict.fromkeys(STAGES, 0.0)
        roots = [span for span in self.obs.roots() if span.closed]
        for root in roots:
            for stage, ms in self.obs.critical_path(root).items():
                stages[stage] += ms
        covered = sum(stages.values())
        order = [span.duration for span in self.obs.spans
                 if span.name == "abcast.order" and span.closed]
        return {
            "event_shares": shares,
            "crit_path_shares": {stage: (ms / covered if covered else 0.0)
                                 for stage, ms in stages.items()},
            "root_spans": len(roots),
            "abcast_order_ms_p50": percentile(order, 0.5),
            "abcast_order_spans": len(order),
            "spans": len(self.obs.spans),
        }


def traced_cell(run_first_cell: Callable[[CellHooks], dict],
                run_single_node: Callable[[], dict]) -> dict:
    """Run the first cell under pass A, then pass B, then the baseline."""
    out = {}
    for name, hooks in (("A", ProfileHooks()), ("B", ObserveHooks())):
        record = run_first_cell(hooks)
        out[name] = {"events": record["events"],
                     "committed": record["window"]["committed"],
                     "run_wall_s": sum(record["slices_s"]),
                     **hooks.result()}
    out["single_node_ms_p50"] = percentile(
        run_single_node()["window"]["response_ms"], 0.5)
    return out


# -- the named metrics ------------------------------------------------------------------


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(counters: Dict[str, float], totals: Dict[str, float],
                      trace: dict, best_untraced_first_cell_s: float
                      ) -> Dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json, by name.

    ``counters`` are :func:`combine_counters` sums, ``totals`` the runner's
    workload totals (events, commits, attempts, host seconds), ``trace`` the
    :func:`traced_cell` result.  A metric that does not apply to a workload
    (``gcs.*`` under lazy replication, ``partition.*`` on one group) is 0.
    """
    c = counters.get
    commits = totals["replied_commits"]
    reads = c("db.read_hits", 0) + c("db.read_misses", 0)
    certs = c("replication.certified", 0) + c("replication.cert_aborts", 0)
    xp = c("partition.xp_committed", 0) + c("partition.xp_aborted", 0)
    routed = c("partition.single", 0) + c("partition.cross", 0)
    during = (c("partition.during_migration_commits", 0)
              + c("partition.during_migration_aborts", 0))
    profile, observed = trace["A"], trace["B"]
    metrics = {
        "sim.engine.events": totals["events"],
        "sim.engine.events_per_wall_s": _per(totals["events"],
                                             totals["run_wall_s"]),
        "sim.resources.grants_per_commit": _per(c("sim.grants", 0), commits),
        "network.lan.msgs_per_commit": _per(c("network.lan_sent", 0),
                                            commits),
        "network.lan.drop_share": _per(c("network.lan_dropped", 0),
                                       c("network.lan_sent", 0)),
        "network.dispatch.dispatched_per_commit": _per(
            c("network.dispatched", 0), commits),
        "network.node.cpu_util": _per(c("network.cpu_busy_ms", 0),
                                      c("network.cpu_capacity_ms", 0)),
        "network.node.disk_util": _per(c("network.disk_busy_ms", 0),
                                       c("network.disk_capacity_ms", 0)),
        "network.node.disk_util_max": c("network.disk_util_max", 0),
        "gcs.total_order.broadcasts_per_commit": _per(c("gcs.broadcasts", 0),
                                                      commits),
        "gcs.total_order.acks_per_commit": _per(c("gcs.acks", 0), commits),
        "gcs.total_order.replayed": c("gcs.replayed", 0),
        "gcs.total_order.span_ms_p50": observed["abcast_order_ms_p50"],
        "gcs.paxos.prepares": c("gcs.prepares", 0),
        "gcs.failure_detector.suspicions": c("gcs.suspicions", 0),
        "gcs.failure_detector.false_suspicions":
            c("gcs.suspicions", 0) - c("gcs.injected_crashes", 0),
        "gcs.membership.view_changes": c("gcs.view_changes", 0),
        "gcs.failover_ms": c("gcs.failover_ms", 0),
        "gcs.rejoin_ms": c("gcs.rejoin_ms", 0),
        "db.wal.flushes_per_commit": _per(c("db.wal_flushes", 0), commits),
        "db.stable_storage.writes_per_commit": _per(c("db.stable_records", 0),
                                                    commits),
        "db.buffer.read_hit_ratio": _per(c("db.read_hits", 0), reads),
        "db.buffer.sync_writes_per_commit": _per(c("db.sync_writes", 0),
                                                 commits),
        "db.buffer.async_writes_per_commit": _per(c("db.async_writes", 0),
                                                  commits),
        "db.buffer.flushed_pages_per_commit": _per(c("db.flushed_pages", 0),
                                                   commits),
        "db.buffer.throttle_events": c("db.throttle_events", 0),
        "db.locks.deadlocks": c("db.deadlocks", 0),
        "db.engine.certification_aborts": c("db.cert_aborts", 0),
        "db.items.created": c("db.items", 0),
        "db.items.create_s": profile["build_entry_points"].get(
            "db.items.create", {"cumulative_s": 0.0})["cumulative_s"],
        "replication.dbsm.certified_per_commit": _per(
            c("replication.certified", 0), commits),
        "replication.dbsm.cert_abort_ratio": _per(
            c("replication.cert_aborts", 0), certs),
        "replication.dbsm.duplicate_deliveries":
            c("replication.duplicate_deliveries", 0),
        "replication.lazy.propagated_batches":
            c("replication.lazy_batches", 0),
        "replication.lazy.writesets_per_batch": _per(
            _per(c("replication.lazy_applied", 0),
                 c("replication.peers", 0)),
            c("replication.lazy_batches", 0)),
        "replication.lazy.divergent_items_at_end":
            totals["divergent_items"],
        "replication.single_node_p50_ms": trace["single_node_ms_p50"],
        "partition.router.fast_path_share": _per(c("partition.single", 0),
                                                 routed),
        "partition.router.wrong_epoch_retries":
            c("partition.wrong_epoch_retries", 0),
        "partition.coordinator.xp_abort_ratio": _per(
            c("partition.xp_aborted", 0), xp),
        "partition.routing.epoch_bumps": c("partition.epoch_bumps", 0),
        "partition.cluster.migration_ms": c("partition.migration_ms", 0),
        "partition.cluster.fence_ms": c("partition.fence_ms", 0),
        "partition.workload.during_migration_abort_ratio": _per(
            c("partition.during_migration_aborts", 0), during),
        "partition.workload.rejected": c("partition.rejected", 0),
        "workload.generator.generated": c("workload.generated", 0),
        # Arrivals are drawn on the simulated clock, so the open-loop
        # generator is never late by construction.
        "workload.clients.lateness_ms": 0.0,
        "sim_commit_p99_ms": totals["sim_commit_p99_ms"],
        "slo_miss_share": _per(totals["slo_miss"], totals["attempted"]),
        "failed_share": _per(totals["attempted"] - totals["committed"],
                             totals["attempted"]),
        "trace.overhead_ratio": _per(profile["run_wall_s"],
                                     best_untraced_first_cell_s),
        "trace.attributed_share": 1.0 - _per(
            profile["self_s"]["host.self_s.other"],
            sum(profile["self_s"].values())),
    }
    metrics.update(profile["self_s"])
    for name, share in observed["event_shares"].items():
        metrics[f"sim.events.share.{name}"] = share
    for stage, share in observed["crit_path_shares"].items():
        metrics[f"replication.crit_path_share.{stage}"] = share
    return metrics
