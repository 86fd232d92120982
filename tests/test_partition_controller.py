"""The autobalance controller: triggers, damping, and end-to-end repair."""

from __future__ import annotations

import pytest

from repro.experiments.autobalance import run_autobalance_experiment
from repro.experiments.rebalance import audit_commit_integrity
from repro.partition import (PartitionedCluster, PartitionedOpenLoopClients,
                             RebalanceController)
from repro.workload import SimulationParameters


def build(partitions=2, items=120, technique="group-safe", seed=7,
          **overrides):
    params = SimulationParameters.small(server_count=3, item_count=items)
    if overrides:
        params = params.with_overrides(**overrides)
    cluster = PartitionedCluster(technique, params=params, seed=seed,
                                 partition_count=partitions, strategy="range")
    cluster.start()
    return cluster


def pump(cluster, phases, period_ms, volume=200):
    """Spawn a process noting ``volume`` accesses per window, one phase at
    a time: phases is a list of key lists, cycled every ``period_ms``."""
    def loop():
        index = 0
        while True:
            keys = phases[index % len(phases)]
            for _ in range(volume // len(keys)):
                cluster.routing.note_keys(keys)
            index += 1
            yield cluster.sim.timeout(period_ms)
    return cluster.sim.spawn(loop(), name="test.pump")


# ---------------------------------------------------------------- validation
def test_controller_validates_its_knobs():
    cluster = build()
    with pytest.raises(ValueError):
        RebalanceController(cluster, window_ms=0.0)
    with pytest.raises(ValueError):
        RebalanceController(cluster, share_threshold=1.5)


def test_controller_registers_itself_and_starts_idempotently():
    cluster = build()
    controller = RebalanceController(cluster)
    assert cluster.controller is controller
    process = controller.start()
    assert controller.start() is process
    controller.stop()


# ---------------------------------------------------------------- triggering
def test_controller_triggers_on_a_sustained_hot_shard():
    cluster = build(partitions=2, items=120)
    controller = RebalanceController(cluster, window_ms=200.0,
                                     share_threshold=0.6,
                                     min_window_accesses=50)
    controller.start()
    hot_keys = [f"item-{index}" for index in range(10)]
    pump(cluster, [hot_keys], period_ms=200.0)
    cluster.run(until=5_000)
    assert controller.stats.rebalances_triggered >= 1
    report = cluster.migration_reports[0]
    assert report.completed
    assert report.source_group == 0
    assert report.destination_group == 1
    # The hot head itself moved, not the cold half of the shard.
    assert report.key_range.lo == 0


def test_controller_stays_quiet_below_the_threshold():
    cluster = build(partitions=2, items=120)
    controller = RebalanceController(cluster, window_ms=200.0,
                                     share_threshold=0.6,
                                     min_window_accesses=50)
    controller.start()
    # Perfectly balanced accesses: both shards stay under the share bar.
    balanced = [f"item-{index}" for index in (0, 1, 60, 61)]
    pump(cluster, [balanced], period_ms=200.0)
    cluster.run(until=5_000)
    assert controller.stats.rebalances_triggered == 0
    assert controller.stats.skipped_below_threshold > 0
    assert cluster.routing.epoch == 0


def test_controller_ignores_sparse_windows():
    cluster = build(partitions=2, items=120)
    controller = RebalanceController(cluster, window_ms=200.0,
                                     min_window_accesses=1_000)
    controller.start()
    pump(cluster, [[f"item-{index}" for index in range(5)]], period_ms=200.0,
         volume=100)   # heavily skewed, but below the traffic floor
    cluster.run(until=3_000)
    assert controller.stats.rebalances_triggered == 0


# ---------------------------------------------------------------- damping
def test_hysteresis_does_not_remove_a_recently_moved_range():
    cluster = build(partitions=2, items=120)
    controller = RebalanceController(cluster, window_ms=200.0,
                                     share_threshold=0.6,
                                     cooldown_windows=0,
                                     hysteresis_windows=8,
                                     min_window_accesses=50)
    controller.start()
    # A single red-hot key: the weighted-median split isolates it in a
    # width-1 shard that stays ~100% of the load wherever it lives, so a
    # controller without hysteresis would bounce it between the groups
    # every window.  Hysteresis must refuse to chase it for 8 windows
    # after each move.
    pump(cluster, [["item-0"]], period_ms=200.0)
    cluster.run(until=4_000)              # ~19 windows
    stats = controller.stats
    assert stats.rebalances_triggered <= 3
    assert stats.skipped_hysteresis >= 8


def test_alternating_hotspot_does_not_ping_pong_every_window():
    cluster = build(partitions=2, items=120)
    window_ms = 200.0
    controller = RebalanceController(cluster, window_ms=window_ms,
                                     share_threshold=0.55,
                                     cooldown_windows=2,
                                     hysteresis_windows=4,
                                     min_window_accesses=50)
    controller.start()
    # The hotspot flips between the two shards every window — the worst
    # case for a naive "move the hottest shard each window" controller,
    # which would trigger ~every window.
    head_a = [f"item-{index}" for index in range(6)]
    head_b = [f"item-{index}" for index in range(60, 66)]
    pump(cluster, [head_a, head_b], period_ms=window_ms)
    cluster.run(until=6_000)              # ~29 windows
    stats = controller.stats
    assert stats.windows_observed >= 25
    # Damping holds: far fewer moves than windows, and both damping
    # mechanisms measurably intervened.
    assert stats.rebalances_triggered <= stats.windows_observed // 4
    assert stats.skipped_cooldown > 0
    assert len(stats.moves) == stats.rebalances_triggered


def test_cooldown_spaces_out_triggers():
    cluster = build(partitions=2, items=120)
    controller = RebalanceController(cluster, window_ms=200.0,
                                     share_threshold=0.55,
                                     cooldown_windows=5,
                                     hysteresis_windows=0,
                                     min_window_accesses=50)
    controller.start()
    hot_keys = [f"item-{index}" for index in range(6)]
    pump(cluster, [hot_keys], period_ms=200.0)
    cluster.run(until=4_200)              # ~20 windows
    stats = controller.stats
    # With a 5-window cooldown at most every 6th window can trigger.
    assert stats.rebalances_triggered <= 1 + stats.windows_observed // 6
    assert stats.skipped_cooldown > 0


# ---------------------------------------------------------------- end to end
def test_controller_repairs_a_hotspot_shift_under_load():
    outcome = run_autobalance_experiment(
        controlled=True, partitions=4, items=240, load_tps=100.0,
        duration_ms=14_000.0, recovery_ms=10_000.0, seed=5)
    stats = outcome.controller_stats
    assert stats is not None and stats.rebalances_triggered >= 1
    assert outcome.completed_migrations
    assert all(report.verified for report in outcome.completed_migrations)
    # Zero lost / duplicated commits across every controller-driven move.
    assert outcome.audit_ok, outcome.audit_failures
    # The decayed counters rolled exactly once per evaluation (the
    # controller is the table's only decay path) and the decisions landed
    # in the statistics.
    assert outcome.statistics.controller is stats
    assert outcome.statistics.windows_rolled == stats.windows_observed


def test_static_run_collects_no_controller_stats():
    outcome = run_autobalance_experiment(
        controlled=False, partitions=2, items=120, load_tps=40.0,
        duration_ms=6_000.0, shift_at_ms=3_000.0, recovery_ms=4_500.0,
        warmup_ms=1_000.0)
    assert outcome.controller_stats is None
    assert outcome.statistics.controller is None
    assert not outcome.migrations


def test_controlled_cluster_keeps_commit_integrity_with_open_loop_load():
    cluster = build(partitions=4, items=240, zipf_skew=1.1,
                    cross_partition_probability=0.05)
    controller = RebalanceController(cluster, window_ms=400.0,
                                     share_threshold=0.45,
                                     min_window_accesses=32)
    controller.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=80.0)
    clients.start()
    cluster.run(until=10_000)
    assert controller.stats.rebalances_triggered >= 1
    assert audit_commit_integrity(cluster, clients) == []
