"""Tests for the observability stack: tracer, exporters, profiling.

Four contracts are enforced here:

* **Determinism** — enabling the span tracer must not change the simulation
  schedule: the kernel event-trace digest and the run statistics of a mixed
  2PC + migration scenario are bit-identical with tracing off and on.
* **Reconciliation** — every committed transaction's root span measures
  exactly the client-observed response time, and its critical-path stage
  breakdown sums back to that duration within 1e-6 ms.
* **Exactness of the primitives** — the shared percentile helper and the
  critical-path sweep on a hand-built span tree produce the predicted
  numbers.
* **Export schema** — the Chrome trace-event payload validates cleanly and
  the validator rejects malformed events.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.stats import percentile
from repro.experiments.traced import run_traced_scenario
from repro.obs.export import (chrome_trace, critical_path_report,
                              validate_chrome_trace)
from repro.obs.kernel import profile_kernel_trace
from repro.obs.tracer import Observability, STAGES
from repro.partition.cluster import PartitionedCluster
from repro.partition.coordinator import CrossPartitionOutcome
from repro.partition.workload import PartitionedOpenLoopClients
from repro.replication.results import RunStatistics
from repro.sim.engine import Simulator
from repro.sim.events import NORMAL_BIAS
from repro.workload.params import SimulationParameters


class FakeSim:
    """Just enough of a simulator for unit-level tracer tests."""

    def __init__(self) -> None:
        self.now = 0.0
        self.obs = None


# --------------------------------------------------------------- determinism
def _mixed_digest(observability: bool):
    """Run the mixed 2PC + migration scenario, return (digest, stats)."""
    params = SimulationParameters.small(
        server_count=3, item_count=240).with_overrides(
        partition_count=4, zipf_skew=1.1, cross_partition_probability=0.1)
    cluster = PartitionedCluster("group-safe", params=params, seed=7)
    trace = cluster.sim.enable_trace()
    if observability:
        cluster.enable_observability()
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=120.0)
    clients.start()
    cluster.run(until=1200.0)
    cluster.rebalance()
    cluster.run(until=2500.0)
    digest = hashlib.sha256()
    for entry in trace:
        digest.update(repr(entry).encode())
    committed_rt = sum(result.response_time for result in clients.results
                      if result.committed)
    return (digest.hexdigest(), cluster.sim.scheduled_events,
            sum(result.committed for result in clients.results), committed_rt)


class TestTracerDeterminism:
    def test_tracing_does_not_change_the_schedule(self):
        """The observation-only license: identical digests off and on."""
        assert _mixed_digest(False) == _mixed_digest(True)

    def test_disabled_tracer_records_nothing(self):
        sim = Simulator(seed=1)
        assert sim.obs is None


# ------------------------------------------------- traced scenario (shared)
@pytest.fixture(scope="module")
def traced_run():
    """One traced 2PC + migration run shared by the reconciliation tests."""
    return run_traced_scenario(seed=7, rebalance_at_ms=1200.0,
                               duration_ms=2500.0)


class TestCriticalPathReconciliation:
    def test_stages_sum_to_duration_for_every_closed_root(self, traced_run):
        obs, _clients = traced_run
        closed = [root for root in obs.roots() if root.closed]
        assert closed, "the traced scenario produced no closed root spans"
        for root in closed:
            stages = obs.critical_path(root)
            assert set(stages) == set(STAGES)
            assert sum(stages.values()) == pytest.approx(root.duration,
                                                         abs=1e-6)

    def test_root_span_duration_is_the_response_time(self, traced_run):
        obs, clients = traced_run
        committed = [answer for answer in clients.results if answer.committed]
        assert committed
        for answer in committed:
            key = (("xp", answer.xid)
                   if isinstance(answer, CrossPartitionOutcome)
                   else ("txn", answer.txn_id))
            root = obs.span_for(key)
            assert root is not None and root.closed
            assert root.duration == pytest.approx(answer.response_time,
                                                  abs=1e-6)

    def test_committed_transactions_have_complete_span_trees(self,
                                                             traced_run):
        obs, clients = traced_run
        committed = [answer for answer in clients.results if answer.committed]
        for result in committed:
            if isinstance(result, CrossPartitionOutcome):
                continue
            root = obs.span_for(("txn", result.txn_id))
            children = obs.children_of(root)
            assert children, f"committed {result.txn_id} has no child spans"
            assert all(child.closed for child in obs.descendants(root))
        cross_committed = [outcome for outcome in committed
                           if isinstance(outcome, CrossPartitionOutcome)]
        assert cross_committed, "scenario produced no committed 2PC txns"
        for outcome in cross_committed:
            root = obs.span_for(("xp", outcome.xid))
            names = {child.name for child in obs.descendants(root)}
            assert "2pc.prepare" in names
            assert "2pc.commit-branch" in names

    def test_migration_root_span_recorded(self, traced_run):
        obs, _clients = traced_run
        migrations = [span for span in obs.roots()
                      if span.name == "migration"]
        assert migrations
        for span in migrations:
            assert span.closed
            child_names = {child.name for child in obs.children_of(span)}
            assert "migration.copy" in child_names
            assert "migration.fence" in child_names


# ----------------------------------------------------------------- exporter
class TestChromeTraceExport:
    def test_traced_scenario_payload_validates(self, traced_run):
        obs, _clients = traced_run
        payload = chrome_trace(obs, metadata={"scenario": "test"})
        assert validate_chrome_trace(payload) == []
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert phases == {"X", "i", "M"}
        assert payload["otherData"]["scenario"] == "test"
        assert payload["otherData"]["spans"] == len(obs.spans)

    def test_open_spans_are_skipped_but_counted(self):
        sim = FakeSim()
        obs = Observability(sim)
        obs.begin("left-open")
        done = obs.begin("done")
        sim.now = 2.0
        obs.end(done)
        payload = chrome_trace(obs)
        names = [event["name"] for event in payload["traceEvents"]
                 if event["ph"] == "X"]
        assert names == ["done"]
        assert payload["otherData"]["open_spans"] == 1

    def test_validator_rejects_malformed_events(self):
        assert validate_chrome_trace([]) == \
            ["payload must be an object, got list"]
        assert validate_chrome_trace({"traceEvents": {}}) == \
            ["traceEvents must be a list"]
        bad = {"traceEvents": [
            {"name": "", "ph": "X", "pid": 1, "ts": 0.0, "dur": 1.0,
             "tid": 1},
            {"name": "x", "ph": "Q", "pid": 1},
            {"name": "y", "ph": "X", "pid": 1, "ts": -1.0, "dur": -2.0,
             "tid": "a"},
            {"name": "z", "ph": "i", "pid": 1, "ts": 0.0, "tid": 1,
             "s": "bogus"},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) == 6

    def test_critical_path_report_renders_all_stages(self, traced_run):
        obs, _clients = traced_run
        report = critical_path_report(obs, limit=5)
        header = report.splitlines()[0]
        for stage in STAGES:
            assert stage in header
        assert "aggregate over" in report.splitlines()[-1]


# ------------------------------------------------- critical path, synthetic
class TestCriticalPathSweep:
    def test_overlap_resolves_to_the_higher_priority_stage(self):
        sim = FakeSim()
        obs = Observability(sim)
        root = obs.begin("txn", category="txn", root=True)
        sim.now = 2.0
        disk = obs.begin("disk", category="disk", parent=root)
        sim.now = 4.0
        network = obs.begin("net", category="network", parent=root)
        sim.now = 5.0
        obs.end(disk)
        sim.now = 7.0
        obs.end(network)
        sim.now = 10.0
        obs.end(root)
        stages = obs.critical_path(root)
        # disk [2,5] wins its whole interval (beats network on [4,5]);
        # network keeps only [5,7]; the rest of [0,10] is queue.
        assert stages["disk"] == pytest.approx(3.0)
        assert stages["network"] == pytest.approx(2.0)
        assert stages["cpu"] == 0.0 and stages["protocol"] == 0.0
        assert stages["queue"] == pytest.approx(5.0)
        assert sum(stages.values()) == pytest.approx(root.duration)

    def test_children_are_clipped_to_the_root_interval(self):
        sim = FakeSim()
        obs = Observability(sim)
        sim.now = 5.0
        root = obs.begin("txn", category="txn", root=True)
        sim.now = 3.0  # late-attached child that started before the root
        child = obs.begin("disk", category="disk", parent=root)
        sim.now = 20.0
        obs.end(child)
        sim.now = 10.0
        obs.end(root)
        # Root covers [5,10]; the child [3,20] must be clipped to it.
        stages = obs.critical_path(root)
        assert stages["disk"] == pytest.approx(5.0)
        assert stages["queue"] == 0.0

    def test_unknown_parent_key_leaves_span_parentless(self):
        obs = Observability(FakeSim())
        span = obs.begin("orphan", parent=("txn", "never-registered"))
        assert span.parent_id is None
        assert obs.end_key(("txn", "never-registered")) is None

    def test_key_reuse_is_last_writer_wins(self):
        sim = FakeSim()
        obs = Observability(sim)
        first = obs.begin("txn", key=("txn", "t1"))
        obs.end(first)
        second = obs.begin("txn", key=("txn", "t1"))
        assert obs.span_for(("txn", "t1")) is second

    def test_end_is_idempotent(self):
        sim = FakeSim()
        obs = Observability(sim)
        span = obs.begin("txn")
        sim.now = 4.0
        obs.end(span)
        sim.now = 9.0
        obs.end(span, labels={"late": True})
        assert span.end == 4.0
        assert span.labels["late"] is True


# ------------------------------------------------------- shared percentiles
class TestSharedPercentile:
    def test_empty_input_is_zero_everywhere(self):
        assert percentile([], 0.5) == 0.0
        assert RunStatistics().percentile(0.5) == 0.0

    def test_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_interpolation_matches_across_implementations(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        stats = RunStatistics(response_times=list(values))
        for fraction in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            expected = percentile(values, fraction)
            assert stats.percentile(fraction) == expected
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.75) == 4.0
        assert percentile(values, 1.0) == 5.0


# ----------------------------------------------------------- kernel profile
class TestKernelProfile:
    def test_profile_counts_by_type_and_priority_lane(self):
        trace = [(0.0, NORMAL_BIAS + 1, "Timeout"),
                 (1.0, NORMAL_BIAS + 2, "Timeout"),
                 (1.5, 3, "Interrupt"),
                 (2.0, NORMAL_BIAS + 4, "Event")]
        profile = profile_kernel_trace(trace)
        assert profile["total_events"] == 4
        assert profile["priority_events"] == 1
        assert profile["first_event_at_ms"] == 0.0
        assert profile["last_event_at_ms"] == 2.0
        assert profile["by_type"]["Timeout"] == {"events": 2, "priority": 0}
        assert profile["by_type"]["Interrupt"] == {"events": 1,
                                                   "priority": 1}

    def test_profile_of_a_real_run_matches_scheduled_events(self):
        sim = Simulator(seed=3)
        trace = sim.enable_trace()
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run(until=5.0)
        profile = profile_kernel_trace(trace)
        assert profile["total_events"] == len(trace)
        assert profile["total_events"] > 0
