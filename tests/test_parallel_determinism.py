"""Serial-vs-parallel determinism of the conservative sharded engine.

The license for the parallel execution mode is the same one every kernel
optimisation in this repo carries: the simulation must be *bit-identical* to
the reference execution.  These tests run the same sharded scenario on the
serial in-process engine (``workers=0``) and on 1, 2 and 3 worker processes
(both scenarios have three shards; more workers would be clamped) and require

* identical per-shard golden-trace digests (every event, in order, at every
  worker count), and
* an identical merged :class:`~repro.partition.stats.PartitionedRunStatistics`
  (dataclass equality, so every commit, abort reason, response time,
  migration report and crash record must match),

including a scenario with a mid-run migration and an injected crash
failpoint.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import (failure_matrix, netsplit_matrix,
                               partition_failure_matrix)
from repro.partition.parallel_cluster import (CrashPlan, MigrationPlan,
                                              ShardScenario,
                                              run_parallel_sharded)
from repro.sim.parallel import ShardSpec, run_sharded

WORKER_COUNTS = (0, 1, 2, 3)

#: CI sets REPRO_DETECT_RACES=1 to re-run this suite with the runtime window
#: protocol cross-checks on — digests must be unaffected either way.
DETECT_RACES = os.environ.get("REPRO_DETECT_RACES", "") not in ("", "0")


def _plain_scenario() -> ShardScenario:
    return ShardScenario(
        technique="group-safe", shard_count=3, seed=7,
        items_per_shard=60, servers_per_shard=3,
        load_tps_per_shard=40.0, cross_shard_probability=0.25,
        cross_shard_latency=4.0, duration_ms=600.0, trace=True)


def _failure_scenario() -> ShardScenario:
    """Mid-run migration with a fence-phase crash failpoint plus a second,
    independently scheduled crash/recover pair on another shard."""
    return ShardScenario(
        technique="group-safe", shard_count=3, seed=11,
        items_per_shard=60, servers_per_shard=3,
        load_tps_per_shard=40.0, cross_shard_probability=0.25,
        cross_shard_latency=4.0, duration_ms=800.0, trace=True,
        migrations=(MigrationPlan(start_ms=250.0, source_shard=0,
                                  dest_shard=1, key_count=40,
                                  chunk_size=16,
                                  failpoint=("migration.fence", 1, 150.0)),),
        crashes=(CrashPlan(at_ms=300.0, shard=2, server_index=0,
                           recover_at_ms=520.0),))


def _strip_obs(statistics):
    statistics.obs = None
    return statistics


@pytest.mark.parametrize("scenario_factory, name",
                         [(_plain_scenario, "plain"),
                          (_failure_scenario, "migration+crash")])
def test_digests_and_statistics_identical_at_every_worker_count(
        scenario_factory, name):
    scenario = scenario_factory()
    reference = run_parallel_sharded(scenario, workers=0,
                                     detect_races=DETECT_RACES)
    assert all(digest is not None for digest in reference.digests.values())
    # The run must have actually exercised the cross-shard machinery,
    # otherwise the determinism claim is vacuous.
    assert reference.messages > 0
    assert reference.statistics.measured_commits > 0
    assert reference.statistics.cross.measured_commits > 0
    for workers in WORKER_COUNTS[1:]:
        parallel = run_parallel_sharded(scenario, workers=workers,
                                        detect_races=DETECT_RACES)
        assert parallel.digests == reference.digests, \
            f"{name}: per-shard digests diverged at workers={workers}"
        assert (_strip_obs(parallel.statistics) ==
                _strip_obs(reference.statistics)), \
            f"{name}: merged statistics diverged at workers={workers}"


def test_failure_scenario_really_injects_failures():
    report = run_parallel_sharded(_failure_scenario(), workers=0)
    statistics = report.statistics
    assert statistics.failpoints_fired == {"migration.fence": 1}
    kinds = [record.kind for record in statistics.injected_crashes]
    assert "crash" in kinds
    assert "failpoint:migration.fence" in kinds
    assert kinds.count("recover") == 2
    assert len(statistics.completed_migrations) == 1
    assert statistics.final_epoch == 1
    # Epoch-1 commits exist: the run continued after the routing install.
    assert statistics.epoch_commits.get(1, 0) > 0


def test_worker_count_beyond_shards_is_clamped():
    scenario = _plain_scenario()
    with pytest.warns(RuntimeWarning, match=r"clamped workers from 8 to 3"):
        report = run_parallel_sharded(scenario, workers=8)
    assert report.workers == scenario.shard_count
    assert report.requested_workers == 8
    assert report.digests == run_parallel_sharded(scenario,
                                                  workers=0).digests


def test_unclamped_run_emits_no_warning_and_reports_request():
    import warnings

    scenario = _plain_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_parallel_sharded(scenario, workers=2)
    assert report.workers == 2
    assert report.requested_workers == 2


def test_merged_chrome_trace_validates_with_one_pid_per_shard():
    from dataclasses import replace

    from repro.obs.export import validate_chrome_trace
    from repro.partition.parallel_cluster import merged_chrome_trace

    scenario = replace(_plain_scenario(), trace=False, observe=True,
                       duration_ms=300.0)
    report = run_parallel_sharded(scenario, workers=2)
    merged = merged_chrome_trace(report)
    assert validate_chrome_trace(merged) == []
    pids = {event["pid"] for event in merged["traceEvents"]}
    assert pids == {shard + 1 for shard in range(scenario.shard_count)}
    timestamps = [event["ts"] for event in merged["traceEvents"]
                  if event["ph"] != "M"]
    assert timestamps == sorted(timestamps)
    # Metadata (process / thread names) stays in front of the timed events.
    phases = [event["ph"] for event in merged["traceEvents"]]
    assert "M" not in phases[phases.index("X"):] if "X" in phases else True


@pytest.mark.parametrize("run, render, kwargs", [
    (failure_matrix.run_failure_matrix, failure_matrix.render_matrix,
     dict(techniques=["1-safe"])),
    (partition_failure_matrix.run_partitioned_failure_matrix,
     partition_failure_matrix.render_partitioned_matrix,
     dict(techniques=["1-safe"], patterns=["none", "shard-delegate"])),
    (netsplit_matrix.run_netsplit_matrix,
     netsplit_matrix.render_netsplit_matrix,
     dict(engines=["multi-paxos"], patterns=["split-minority-follower"],
          detectors=["perfect", "hb-fast"], include_partitioned=False)),
], ids=["single-group", "partitioned", "netsplit"])
def test_matrix_worker_pool_matches_serial_run(run, render, kwargs):
    """Pool.map returns cells in submission order, so the pooled matrix and
    its rendered report must match the serial run verdict for verdict —
    for every matrix, since all three fan out through the one harness pool.
    (Transaction *ids* are process-history dependent — the module-global
    program counter — so the comparison is on verdicts and the report, which
    is what the matrix publishes.)"""
    serial = run(seed=3, **kwargs)
    pooled = run(seed=3, workers=2, **kwargs)
    assert len(serial) >= 2
    assert render(pooled) == render(serial)
    assert ([(entry.sound, entry.demonstrated) for entry in pooled] ==
            [(entry.sound, entry.demonstrated) for entry in serial])


def test_run_sharded_rejects_bad_arguments():
    spec = ShardSpec(shard_id=0,
                     builder="repro.partition.parallel_cluster:"
                             "build_shard_world",
                     config=_plain_scenario())
    with pytest.raises(ValueError):
        run_sharded([], lookahead=1.0, until=10.0)
    with pytest.raises(ValueError):
        run_sharded([spec], lookahead=0.0, until=10.0)
    with pytest.raises(ValueError):
        run_sharded([spec], lookahead=1.0, until=10.0, workers=-1)
