"""The fault-plan driver: timing rules, both facades, and failpoint checks."""

from __future__ import annotations

import pytest

from repro.experiments.harness import confirm, small_parameters
from repro.experiments.netsplit_matrix import \
    run_migration_fence_split_scenario
from repro.experiments.partition_failure_matrix import \
    run_partitioned_crash_scenario
from repro.experiments.plans import ALL_SERVERS, WORKLOAD, PlanDriver
from repro.network import LinkFault
from repro.partition.cluster import PartitionedCluster
from repro.partition.migration import Migration
from repro.replication.cluster import ReplicatedDatabaseCluster


def _group():
    cluster = ReplicatedDatabaseCluster("group-safe",
                                        params=small_parameters(), seed=1)
    cluster.start()
    return cluster


def _sharded():
    cluster = PartitionedCluster(
        "group-safe", seed=1,
        params=small_parameters(partition_count=2,
                                cross_partition_probability=0.0))
    cluster.start()
    return cluster


def test_server_steps_run_the_simulation_to_their_instant():
    cluster = _group()
    driver = PlanDriver(cluster, ((10.0, "crash", ("s3",)), WORKLOAD,
                                  (5.0, "recover", (("s3",), 50.0))))
    driver.advance()
    assert cluster.sim.now == pytest.approx(10.0)
    assert cluster.node("s3").is_crashed
    cluster.run(until=20.0)
    driver.finish()
    # After a workload turn the plan counts from the hand-back: 20 + 5,
    # then the recovery's 50 ms step.
    assert cluster.sim.now == pytest.approx(75.0)
    assert not cluster.node("s3").is_crashed
    assert (driver.crashed, driver.recovered) == (["s3"], ["s3"])


def test_environment_steps_go_on_the_calendar_when_due_later():
    cluster = _group()
    split = LinkFault.partition("split", ["s3"], ["s1", "s2"])
    driver = PlanDriver(cluster, (
        (100.0, "fault", (split, 50.0)),
        (0.0, "degrade-cpu", (("s2",), 4.0)),
        (80.0, "restore-cpu", ("s2",))))
    healthy = cluster.node("s2").cpu_time_per_io
    # The workload runs first; the plan still counts from the driver's
    # making (time 0), as the netsplit cells' absolute window needs.
    cluster.run(until=30.0)
    driver.finish()
    assert cluster.sim.now == pytest.approx(30.0)   # nothing was run
    cluster.run(until=120.0)
    assert cluster.lan.active_faults() == ["split"]
    assert cluster.node("s2").cpu_time_per_io == pytest.approx(4 * healthy)
    cluster.run(until=160.0)
    assert cluster.lan.active_faults() == []
    cluster.run(until=200.0)
    assert cluster.node("s2").cpu_time_per_io == healthy


def test_a_partitioned_plan_addresses_its_shard():
    cluster = _sharded()
    obs = cluster.enable_observability()
    driver = PlanDriver(cluster, ((0.0, "close-gates", ALL_SERVERS),
                                  (1.0, "crash-group", None)), shard=-1)
    driver.finish()
    group = cluster.group(1)
    assert not any(group.replica(name).processing_gate.is_open
                   for name in group.server_names())
    assert driver.crashed == group.server_names() == \
        ["p1.s1", "p1.s2", "p1.s3"]
    assert all(group.node(name).is_crashed for name in driver.crashed)
    assert not any(cluster.group(0).node(name).is_crashed
                   for name in cluster.group(0).server_names())
    # One whole-group crash on the faults track, not three server crashes.
    assert [(instant.name, instant.labels)
            for instant in obs.instants if instant.track == "faults"] == \
        [("crash.partition", {"partition": 1})]


def test_a_failpoint_step_that_never_fires_raises():
    # 2pc.prepared needs a cross-partition transaction; this run has none.
    cluster = _sharded()
    driver = PlanDriver(cluster, (("2pc.prepared", "crash", ("s1",)),
                                  WORKLOAD, (0.0, "recover", (("s1",), 0.0))))
    driver.advance()
    confirm(cluster, {"item-1": "single-shard"}, client="plan")
    with pytest.raises(RuntimeError, match="2pc.prepared"):
        driver.advance()
    assert driver.recovered == []           # nothing acted on the stale step


def test_skipping_a_workload_turn_is_an_error():
    driver = PlanDriver(_group(), (WORKLOAD, WORKLOAD, (0.0, "wait", None)))
    with pytest.raises(RuntimeError, match=r"step\(s\) left"):
        driver.finish()


def test_unknown_verb_is_rejected():
    with pytest.raises(ValueError, match="meteor"):
        PlanDriver(_group(), ((0.0, "meteor", None),)).finish()


@pytest.fixture
def migration_skips_fence_and_epoch(monkeypatch):
    """A migration that never reaches its fence or epoch-logged failpoint."""
    reach = Migration._reach

    def skipping(self, phase, **context):
        if phase not in ("fence", "epoch-logged"):
            reach(self, phase, **context)
    monkeypatch.setattr(Migration, "_reach", skipping)


@pytest.mark.usefixtures("migration_skips_fence_and_epoch")
def test_a_migration_pattern_whose_fault_never_fires_fails_loudly():
    with pytest.raises(RuntimeError, match="migration.epoch-logged"):
        run_partitioned_crash_scenario("group-safe", "migration-post-epoch")
    with pytest.raises(RuntimeError, match="migration.fence"):
        run_migration_fence_split_scenario("fixed-sequencer")
