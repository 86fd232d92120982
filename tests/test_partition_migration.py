"""Live key migration: atomicity across crashes, fences and epoch retries.

The acceptance properties of online shard migration:

* a migration that completes under sustained load loses no committed write
  and duplicates none (per-key commit audit);
* a crash *before* the epoch bump leaves the old owner authoritative — on
  disk (WAL reconstruction) and live (the driver aborts and unfences);
* a crash *after* the bump leaves the new owner authoritative;
* transactions routed against a stale epoch are retried, not lost.
"""

from __future__ import annotations

import pytest

from repro.db.wal import LogRecordType
from repro.experiments import audit_commit_integrity
from repro.partition import (ABORT_WRONG_EPOCH, KeyRange, PartitionedCluster,
                             PartitionedOpenLoopClients)
from repro.partition.migration import Migration
from repro.workload import SimulationParameters
from tests.conftest import make_program


def build(partitions=2, technique="group-safe", seed=11, items=120,
          **overrides):
    params = SimulationParameters.small(server_count=3, item_count=items)
    if overrides:
        params = params.with_overrides(**overrides)
    cluster = PartitionedCluster(technique, params=params, seed=seed,
                                 partition_count=partitions, strategy="range")
    cluster.start()
    return cluster


# ---------------------------------------------------------------- live migration
def test_live_migration_under_load_moves_ownership_without_losses():
    cluster = build(items=120, cross_partition_probability=0.1)
    clients = PartitionedOpenLoopClients(cluster, load_tps=40.0)
    clients.start()
    cluster.run(until=1_500)
    driver = cluster.migrate(0, destination_group=1)   # move shard [0, 60)
    cluster.run(until=10_000)

    report = driver.value
    assert report.completed and not report.aborted
    assert report.verified
    assert report.keys_copied == 60
    assert cluster.routing.epoch == 1
    assert cluster.partition_of("item-10") == 1
    # The load never stopped: commits span both epochs.
    assert clients.epoch_commits.get(0, 0) > 0
    assert clients.epoch_commits.get(1, 0) > 0
    # Zero lost / duplicated commits (per-key commit audit).
    assert audit_commit_integrity(cluster, clients) == []


def test_migrated_key_is_served_by_the_new_owner():
    cluster = build()
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=5_000)
    assert driver.value.completed
    waiter = cluster.run_transaction(make_program([("w", "item-10", "moved")]))
    cluster.run(until=8_000)
    assert waiter.value.committed
    assert waiter.value.delegate.startswith("p1.")
    group = cluster.group(1)
    assert any(group.database(name).value_of("item-10") == "moved"
               for name in group.server_names())


def test_in_flight_write_at_migration_start_is_dual_written():
    # A write submitted *before* the migration begins predates the
    # dual-write window; the driver must register it retroactively so the
    # fence drain waits it out and its value reaches the destination.
    cluster = build()
    waiter = cluster.run_transaction(
        make_program([("r", "item-10"), ("w", "item-10", "inflight")]))
    cluster.run(until=1.0)               # submitted, still reading (>= 4 ms)
    assert not waiter.triggered
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=10_000)
    assert waiter.value.committed
    report = driver.value
    assert report.completed and report.verified
    assert report.forwarded_writes >= 1
    for name in cluster.group(1).server_names():
        assert cluster.group(1).database(name).value_of("item-10") == \
            "inflight"


def test_migration_copies_committed_values_to_the_destination():
    cluster = build()
    waiter = cluster.run_transaction(make_program([("w", "item-5", "before")]))
    cluster.run(until=2_000)
    assert waiter.value.committed
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=8_000)
    assert driver.value.completed and driver.value.verified
    for name in cluster.group(1).server_names():
        assert cluster.group(1).database(name).value_of("item-5") == "before"


# ---------------------------------------------------------------- crash atomicity
def test_crash_before_epoch_bump_leaves_the_old_owner_serving():
    cluster = build()
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=50)               # mid warm copy (60 keys, ~8 ms reads)
    assert not driver.triggered
    cluster.crash_partition(1)          # destination dies before the bump
    cluster.run(until=15_000)

    report = driver.value
    assert report.aborted and not report.completed
    assert cluster.routing.epoch == 0
    assert not cluster.routing.has_fences
    # Live: the old owner still serves the range.
    waiter = cluster.run_transaction(make_program([("w", "item-10", "kept")]))
    cluster.run(until=18_000)
    assert waiter.value.committed
    assert waiter.value.delegate.startswith("p0.")
    # On disk: a restarted cluster recovers the old ownership map.
    assert cluster.recovered_routing().partition_of("item-10") == 0


def test_source_delegate_crash_during_the_warm_copy_aborts_the_migration():
    # Regression: under load a chunk copy's read *queues* behind client reads
    # on the source delegate's disk.  A crash of that server failed only the
    # charges holding a disk, so the queued copy never resumed: the driver
    # waited on it forever and every later migrate() was refused.
    cluster = build(seed=1, items=1500, zipf_skew=0.6)
    PartitionedOpenLoopClients(cluster, load_tps=30.0).start()
    cluster.run(until=1_000)
    driver = cluster.rebalance()
    source = cluster.migration_reports[-1].source_group
    cluster.run(until=1_003)            # mid warm copy
    assert not driver.triggered
    cluster.crash_server(source, cluster.group(source).up_servers()[0])
    cluster.run(until=16_003)

    assert driver.triggered
    report = driver.value
    assert report.aborted and report.abort_reason == "source-unavailable"
    assert not cluster.migration_active
    assert not cluster.routing.has_fences
    cluster.rebalance()                 # a second migration starts


@pytest.mark.parametrize("side", ["source", "destination"])
@pytest.mark.parametrize("phase", Migration.PHASES)
def test_group_crash_at_every_migration_phase_settles(phase, side):
    # Crash a whole group at each boundary the protocol lists, recover it
    # and run to quiescence.  group-1-safe logs a commit on its delegate
    # before answering, so a whole-group crash may lose no confirmed write.
    cluster = build(technique="group-1-safe")
    clients = PartitionedOpenLoopClients(cluster, load_tps=30.0)
    clients.start()
    cluster.run(until=1_000)
    crashed = 0 if side == "source" else 1

    def recover():
        for name in cluster.group(crashed).server_names():
            cluster.recover_server(crashed, name)

    def crash(context):
        cluster.crash_partition(crashed)
        cluster.sim.call_after(500.0, recover)

    cluster.add_failpoint(f"migration.{phase}", crash)
    driver = cluster.migrate(0, destination_group=1, chunk_size=8)
    cluster.run(until=6_000)
    clients.load_tps = 1e-12             # no more arrivals; let it drain
    cluster.run(until=30_000)

    assert cluster.failpoints_fired == {f"migration.{phase}": 1}
    assert driver.triggered
    report = driver.value
    assert report.completed != report.aborted
    assert not cluster.migration_active
    assert not cluster.routing.has_fences
    assert cluster.group(crashed).up_servers()
    key_range = report.key_range
    assert cluster.recovered_routing().owner_of_range(key_range) == \
        cluster.routing.owner_of_range(key_range)
    assert audit_commit_integrity(cluster, clients) == []


def test_crash_after_epoch_bump_recovers_the_new_owner():
    cluster = build()
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=5_000)
    assert driver.value.completed
    # Even a full outage of the *old* owner leaves the range served: the
    # durable EPOCH record on the destination is the authority.
    cluster.crash_partition(0)
    recovered = cluster.recovered_routing()
    assert recovered.epoch == cluster.routing.epoch
    assert recovered.partition_of("item-10") == 1
    waiter = cluster.run_transaction(make_program([("w", "item-10", "new")]))
    cluster.run(until=8_000)
    assert waiter.value.committed
    assert waiter.value.delegate.startswith("p1.")


def test_no_transaction_commits_on_both_sides_of_a_migration():
    cluster = build(cross_partition_probability=0.2, items=120)
    clients = PartitionedOpenLoopClients(cluster, load_tps=40.0)
    clients.start()
    cluster.run(until=1_000)
    cluster.migrate(0, destination_group=1)
    cluster.run(until=8_000)
    failures = [failure
                for failure in audit_commit_integrity(cluster, clients)
                if "duplicated" in failure or "lost" in failure]
    assert failures == []


# ---------------------------------------------------------------- epoch retries
def test_fenced_range_submissions_retry_and_then_commit():
    cluster = build()
    fenced = KeyRange(0, 60)
    cluster.routing.fence(fenced)
    waiter = cluster.run_transaction(make_program([("w", "item-10", "v")]))
    cluster.run(until=100)
    assert not waiter.triggered          # parked in the retry loop
    assert cluster.router.wrong_epoch_retries > 0
    cluster.routing.unfence(fenced)
    cluster.run(until=3_000)
    assert waiter.value.committed


def test_fenced_range_submissions_eventually_give_up():
    cluster = build()
    cluster.routing.fence(KeyRange(0, 60))
    waiter = cluster.run_transaction(make_program([("w", "item-10", "v")]))
    cluster.run(until=60_000)            # far beyond the retry budget
    result = waiter.value
    assert not result.committed
    assert result.abort_reason == "wrong-epoch"


def test_coordinator_aborts_wrong_epoch_when_ownership_moves_mid_prepare():
    # Deterministic read times stretch the prepare window; the ownership
    # map moves while the branches are still reading.
    cluster = build(read_time_min=5.0, read_time_max=5.0,
                    buffer_hit_ratio=0.0)
    operations = [("r", "item-10")]
    operations += [("r", f"item-{70 + index}") for index in range(10)]
    operations += [("w", "item-10", "x0"), ("w", "item-90", "x1")]
    waiter = cluster.run_transaction(make_program(operations))
    cluster.sim.call_after(
        10.0, lambda: cluster.routing.migrate(KeyRange(0, 60), 1))
    cluster.run(until=10_000)
    # The first attempt aborted with the wrong-epoch reason, then the retry
    # (routed by the new map, where every key lives on group 1) committed.
    assert cluster.coordinator.wrong_epoch_aborts >= 1
    assert cluster.router.wrong_epoch_retries >= 1
    assert any(outcome.abort_reason == ABORT_WRONG_EPOCH
               for outcome in cluster.cross_partition_outcomes())
    assert waiter.value.committed


# ---------------------------------------------------------------- counters
def test_router_and_coordinator_counters_match_what_happened():
    # Seed 3 puts two cross-partition transactions across the epoch bump.
    cluster = build(seed=3, items=120, cross_partition_probability=0.3)
    router = cluster.router
    classified = []
    classify = router.classify

    def counting_classify(program, **kwargs):
        partitions = classify(program, **kwargs)
        classified.append(len(partitions))
        return partitions

    router.classify = counting_classify
    clients = PartitionedOpenLoopClients(cluster, load_tps=60.0)
    clients.start()
    cluster.run(until=1_500)
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=10_000)
    assert driver.value.completed

    assert router.single_partition_count == classified.count(1)
    assert router.cross_partition_count == len(classified) - classified.count(1)
    assert router.cross_partition_count > 0
    coordinator = cluster.coordinator
    outcomes = coordinator.outcomes
    assert coordinator.committed_count == sum(o.committed for o in outcomes)
    assert coordinator.committed_count + coordinator.aborted_count == \
        len(outcomes)
    assert coordinator.wrong_epoch_aborts == sum(
        o.abort_reason == ABORT_WRONG_EPOCH for o in outcomes)
    assert coordinator.wrong_epoch_aborts > 0
    assert router.wrong_epoch_retries >= coordinator.wrong_epoch_aborts
    assert coordinator.in_doubt_branches == 0


# ---------------------------------------------------------------- reshaping
def test_split_and_merge_are_live_metadata_operations():
    cluster = build()
    assert cluster.split_shard(0, at=30) == 1
    assert cluster.routing.shard_count == 3
    waiter = cluster.run_transaction(make_program([("w", "item-10", "v")]))
    cluster.run(until=2_000)
    assert waiter.value.committed        # routing still total after the split
    assert cluster.merge_shards(0) == 2
    assert cluster.routing.shard_count == 2
    # The reshapes left advisory EPOCH records on the owner's WAL.
    records = [record
               for name in cluster.group(0).server_names()
               for record in (cluster.group(0).database(name).wal
                              .stable_records() +
                              cluster.group(0).database(name).wal
                              .volatile_records())]
    assert any(record.record_type is LogRecordType.EPOCH
               for record in records)


def test_concurrent_migrations_are_refused():
    cluster = build(items=200, partitions=4)
    cluster.migrate(0, destination_group=3)
    with pytest.raises(RuntimeError):
        cluster.migrate(1, destination_group=2)


# ---------------------------------------------------------------- overlapped copy
def test_overlapped_copy_keeps_chunks_in_flight_and_stays_atomic():
    # The copy phase issues up to copy_concurrency chunk transactions at
    # once; the per-key commit audit must still find zero lost / duplicated
    # commits, and the under-fence verification must still pass.
    cluster = build(items=120, cross_partition_probability=0.1)
    clients = PartitionedOpenLoopClients(cluster, load_tps=40.0)
    clients.start()
    cluster.run(until=1_500)
    driver = cluster.migrate(0, destination_group=1, chunk_size=8,
                             copy_concurrency=4)
    cluster.run(until=10_000)

    report = driver.value
    assert report.completed and report.verified
    assert report.keys_copied == 60
    assert report.copy_chunks == 8               # ceil(60 / 8)
    assert report.copy_concurrency == 4
    assert report.copy_inflight_peak > 1         # genuinely overlapped
    assert 0 < report.copy_duration_ms <= report.duration_ms
    assert audit_commit_integrity(cluster, clients) == []


def test_overlapped_copy_is_faster_than_the_serial_copy():
    def copy_duration(copy_concurrency):
        cluster = build(items=120)
        driver = cluster.migrate(0, destination_group=1, chunk_size=8,
                                 copy_concurrency=copy_concurrency)
        cluster.run(until=20_000)
        report = driver.value
        assert report.completed and report.verified
        return report.copy_duration_ms

    serial = copy_duration(1)
    overlapped = copy_duration(4)
    # Overlapping the destination's commit latency across 8 chunks must cut
    # the copy phase decisively, not marginally.
    assert overlapped < 0.6 * serial


def test_copy_throttle_paces_the_chunk_dispatch():
    # With the token budget pinned to a trickle, the copy must wait between
    # chunks and account for it.
    cluster = build(items=120)
    driver = cluster.migrate(0, destination_group=1, chunk_size=8,
                             copy_concurrency=2, copy_budget_tps=10.0,
                             copy_min_tps=10.0)
    cluster.run(until=20_000)
    report = driver.value
    assert report.completed and report.verified
    assert report.throttle_waits > 0
    assert report.throttle_wait_ms > 0
    # 8 chunks at 10 dispatches/s: the copy phase spans several hundred ms.
    assert report.copy_duration_ms > 300.0


def test_rebalance_moves_the_hot_head_to_the_coolest_group():
    cluster = build(partitions=4, items=200, zipf_skew=1.1)
    clients = PartitionedOpenLoopClients(cluster, load_tps=60.0)
    clients.start()
    cluster.run(until=2_000)
    driver = cluster.rebalance()
    cluster.run(until=12_000)
    report = driver.value
    assert report.completed
    assert report.source_group == 0          # the Zipf head lived on g0
    assert report.destination_group != 0
    assert report.key_range.lo == 0          # the head itself moved
    assert cluster.partition_of("item-0") == report.destination_group
    assert audit_commit_integrity(cluster, clients) == []
