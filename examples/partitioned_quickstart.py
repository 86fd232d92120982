#!/usr/bin/env python3
"""Quickstart for the partitioned replication subsystem.

The example shards a small database across four replica groups (each owning
one contiguous range of the keyspace and running the group-safe technique on
its own atomic broadcast), drives it with a mixed workload in which one
transaction in five spans two partitions, and prints:

* the per-partition routing and commit counts,
* the fast-path vs. coordinated (2PC) response times,
* an atomicity check over every cross-partition transaction.

Run it with::

    python examples/partitioned_quickstart.py
"""

from __future__ import annotations

from repro.partition import (CrossPartitionOutcome, PartitionedCluster,
                             PartitionedOpenLoopClients)
from repro.replication import RunStatistics
from repro.workload import SimulationParameters

PARTITIONS = 4
LOAD_TPS = 60.0
WARMUP_MS = 1_000.0
DURATION_MS = 10_000.0


def main() -> None:
    params = SimulationParameters.small(server_count=3, item_count=400)
    params = params.with_overrides(partition_count=PARTITIONS,
                                   cross_partition_probability=0.2)
    cluster = PartitionedCluster("group-safe", params=params, seed=7)
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=LOAD_TPS)
    clients.start()
    cluster.run(until=DURATION_MS)
    stats = RunStatistics.of(clients.results, WARMUP_MS, DURATION_MS)
    single = RunStatistics.of(
        [answer for answer in clients.results
         if not isinstance(answer, CrossPartitionOutcome)],
        WARMUP_MS, DURATION_MS)
    cross = RunStatistics.of(
        [answer for answer in clients.results
         if isinstance(answer, CrossPartitionOutcome)],
        WARMUP_MS, DURATION_MS)

    print(f"Partitioned cluster: {PARTITIONS} group-safe replica groups, "
          f"{LOAD_TPS:.0f} tps offered\n")
    print(f"  routing: {cluster.router.single_partition_count} single-partition, "
          f"{cluster.router.cross_partition_count} cross-partition")
    print(f"  per-partition local commits: {cluster.commit_counts()}")
    print(f"  fast path   : {single.measured_commits} committed, "
          f"mean rt {single.mean_response_time:.1f} ms, "
          f"p95 {single.percentile(0.95):.1f} ms")
    print(f"  coordinated : {cross.measured_commits} committed, "
          f"{cross.measured_aborts} aborted "
          f"({cross.abort_reasons or 'no aborts'}), "
          f"mean rt {cross.mean_response_time:.1f} ms")
    print(f"  overall throughput: {stats.achieved_throughput_tps:.1f} tps\n")

    violations = 0
    for outcome in cluster.cross_partition_outcomes():
        if not outcome.committed:
            continue
        for branch in outcome.branches:
            if branch.txn_id and not cluster.group(
                    branch.partition_id).committed_anywhere(branch.txn_id):
                violations += 1
    total = len(cluster.cross_partition_outcomes())
    if violations:
        print(f"Atomicity check over {total} cross-partition transactions: "
              f"{violations} committed branch(es) MISSING from their "
              f"partition — atomicity violated!")
    else:
        print(f"Atomicity check over {total} cross-partition transactions: "
              f"no committed branch missing from its partition — every "
              f"transaction committed on all involved partitions or on none.")


if __name__ == "__main__":
    main()
