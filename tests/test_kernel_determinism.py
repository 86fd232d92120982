"""Golden-trace determinism tests for the simulation-kernel fast path.

These tests are what licenses kernel optimisation work: every change to
``repro.sim`` (or to anything on the event hot path) must keep
default-configuration runs **bit-identical** — same seed, same event
ordering, same statistics.  Two layers of protection:

* *run-twice identity* — a mixed partitioned scenario (Zipf skew,
  cross-partition 2PC, a live migration under load) run twice with the same
  seed produces identical event-trace digests and identical statistics;
* *pinned migrations* — that scenario and one aborted migration, pinned to
  concrete digests so a reordered step of the migration protocol shows;
* *pinned seed values* — concrete numbers recorded from the seed kernel
  (pre-optimisation) that the current kernel must still reproduce exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figure9 import run_load_point
from repro.experiments.scenarios import figure5_scenario
from repro.partition.cluster import PartitionedCluster
from repro.partition.workload import PartitionedOpenLoopClients
from repro.sim.engine import Simulator
from repro.workload.params import SimulationParameters


def _digest(trace) -> str:
    """SHA-256 over the (time, queue key, event type) trace entries."""
    h = hashlib.sha256()
    for entry in trace:
        h.update(repr(entry).encode())
    return h.hexdigest()


def _mixed_run(seed: int):
    """One mixed scenario: 4 range shards, Zipf load, forced live migration."""
    params = SimulationParameters.small(server_count=3,
                                        item_count=240).with_overrides(
        partition_count=4, zipf_skew=1.1, cross_partition_probability=0.1)
    cluster = PartitionedCluster("group-safe", params=params, seed=seed,
                                 strategy="range")
    trace = cluster.sim.enable_trace()
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=120.0, warmup=0.0)
    clients.start()
    cluster.run(until=1_500.0)
    cluster.rebalance()          # live migration of the hot head under load
    cluster.run(until=4_000.0)
    stats = (
        clients.committed_count,
        clients.submitted_count,
        cluster.routing.epoch,
        len(cluster.migration_reports),
        tuple(clients.response_times()),
        cluster.lan.sent_count,
        cluster.lan.delivered_count,
        cluster.router.wrong_epoch_retries,
        cluster.sim.scheduled_events,
    )
    return _digest(trace), stats


def test_golden_trace_same_seed_is_bit_identical():
    digest_a, stats_a = _mixed_run(seed=71)
    digest_b, stats_b = _mixed_run(seed=71)
    assert digest_a == digest_b
    assert stats_a == stats_b


def test_golden_trace_digest_is_sensitive_to_the_seed():
    digest_a, _ = _mixed_run(seed=71)
    digest_b, _ = _mixed_run(seed=72)
    assert digest_a != digest_b


class TestPinnedMigrationRuns:
    """The live-migration protocol, pinned event for event.

    Run-twice identity cannot catch a reordered spawn or yield inside the
    migration driver, so both outcomes of the protocol are pinned here: the
    completed rebalance of :func:`_mixed_run` and a migration aborted by a
    crash of the whole destination group at the ``migration.fence``
    failpoint.  A refactor of the migration code must leave both unedited.
    """

    def test_completed_migration_is_pinned(self):
        digest, stats = _mixed_run(seed=71)
        assert digest == ("082d5e60855217e70e714ce6100a8397"
                          "a905f9679847900bcdd5cded513aaa55")
        assert stats[:4] == (177, 479, 2, 1)
        assert _digest(stats[4]) == ("f855451209ed928e1ce21d7eaa965ae6"
                                     "80297a8633c62d3fba5917c268c4370d")
        assert stats[5:] == (4800, 4800, 198, 34493)

    def test_aborted_migration_is_pinned(self):
        params = SimulationParameters.small(server_count=3, item_count=120)
        cluster = PartitionedCluster("group-safe", params=params, seed=5,
                                     partition_count=2, strategy="range")
        trace = cluster.sim.enable_trace()
        cluster.start()
        clients = PartitionedOpenLoopClients(cluster, load_tps=40.0,
                                             warmup=0.0)
        clients.start()
        cluster.add_failpoint("migration.fence",
                              lambda context: cluster.crash_partition(1))
        cluster.run(until=1_000.0)
        driver = cluster.migrate(0, destination_group=1)
        cluster.run(until=12_000.0)

        report = driver.value
        assert (report.aborted, report.abort_reason, report.epoch,
                report.verified) == (True, "destination-unavailable", None,
                                     False)
        assert (report.keys_copied, report.delta_keys_copied,
                report.forwarded_writes, report.copy_chunks,
                report.copy_inflight_peak) == (60, 0, 25, 2, 2)
        assert report.started_at == 1_000.0
        assert report.fence_started_at == report.copy_completed_at == \
            1287.6678438145013
        assert report.completed_at == 0.0
        assert cluster.routing.epoch == 0
        assert not cluster.routing.has_fences
        assert not cluster.migration_active
        assert cluster.failpoints_fired == {"migration.fence": 1}
        assert (clients.committed_count, clients.submitted_count,
                cluster.lan.sent_count, cluster.sim.scheduled_events) == \
            (76, 268, 2100, 31429)
        assert _digest(trace) == ("7e9903d7ea353418af2af9bdcff89e70"
                                  "24c4d0302737a2cd1e1599fc861ad383")


def test_trace_hook_records_every_processed_event():
    sim = Simulator(seed=0)
    trace = sim.enable_trace()
    fired = []
    sim.call_after(1.0, lambda: fired.append(sim.now))
    sim.call_after(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.0]
    assert len(trace) == 2
    times = [entry[0] for entry in trace]
    assert times == [1.0, 2.0]


class TestPinnedSeedValues:
    """Concrete numbers recorded from the seed (pre-optimisation) kernel.

    If one of these moves, a kernel change silently altered the trace —
    which invalidates every cross-PR performance and figure comparison: no
    refactor or kernel optimisation may move them.  The group-safe mean was
    re-pinned for the announce-once protocol change, PR 21 (72.98573646760694
    → 72.74862751319809 ms; 81 commits and 0 aborts unchanged): the fixed
    sequencer sends fewer STABLE, so replies shift by tie-order amounts.

    Re-pinned once more with the served inbox, PR 23 (72.74862751319809 →
    72.7491009360775 ms, +0.0007 %; 81 commits and 0 aborts unchanged).  The
    licence: the reception charge of a message that arrives at an idle
    dispatcher takes its tie-break ticket *at the arrival*, not one
    zero-delay hop later, so among completions at the same instant on one
    CPU it now sorts by arrival order.  That is a declared order (ROADMAP
    3(2)), not an accident of how many hops the kernel took; inline open
    gates and unqueued waiter-less completions alone leave the number exact.

    Re-pinned for a cost-model change (81 → 80 commits, 72.7491009360775 →
    71.94061683576605 ms; 0 aborts unchanged): a view-wide post is one
    network operation, one send charge and one LAN broadcast, as Table 4
    prices it, so every copy arrives one latency after the charge instead
    of one charge later per member.  The figure-5 scenario did not move.
    """

    def test_figure5_scenario_is_unchanged(self):
        outcome = figure5_scenario(seed=1)
        assert outcome.confirmed is True
        assert outcome.fate.is_lost is True
        assert outcome.committed_on == ["s1"]
        assert outcome.response.response_time == \
            pytest.approx(35.48652061143362, abs=1e-9)

    def test_group_safe_load_point_is_unchanged(self):
        point = run_load_point("group-safe", 30.0, duration_ms=4_000.0,
                               warmup_ms=1_000.0, seed=5)
        assert point.committed_transactions == 80
        assert point.aborted_transactions == 0
        assert point.mean_response_time_ms == \
            pytest.approx(71.94061683576605, abs=1e-9)


def test_engine_read_matches_buffer_read_item():
    """The inlined read charge of ``LocalDatabase.read`` must stay in
    lockstep with ``BufferPool.read_item`` (still used by the migration
    copy path): identical stream draws, identical hit/miss accounting,
    identical simulated timing."""
    from repro.db.engine import LocalDatabase
    from repro.db.operations import make_program
    from repro.network.node import Node

    def drive(via_engine: bool):
        sim = Simulator(seed=99)
        node = Node(sim, "s1")
        db = LocalDatabase(sim, node, item_count=50)
        txn = db.begin(make_program([("r", "item-0")]))

        def reads():
            for index in range(200):
                key = f"item-{index % 50}"
                if via_engine:
                    yield from db.read(txn, key)
                else:
                    yield from db.buffer.read_item(key)

        sim.run_until_complete(sim.spawn(reads()))
        return (db.buffer.read_hits, db.buffer.read_misses, sim.now,
                sim.scheduled_events)

    assert drive(via_engine=True) == drive(via_engine=False)


class TestInlinedUseSitesReleaseOnKill:
    """The hand-inlined ``request / yield Timeout / finally release`` blocks
    (buffer read/write/flush, WAL flush, dispatcher loop, broadcast sender —
    same pattern everywhere) must keep ``Resource.use``'s crash semantics:
    killing the process mid-charge releases the slot via ``finally``."""

    def _db(self, seed: int = 3, hit_ratio: float = 0.0):
        from repro.db.engine import LocalDatabase
        from repro.network.node import Node

        sim = Simulator(seed=seed)
        node = Node(sim, "s1")
        db = LocalDatabase(sim, node, item_count=20, hit_ratio=hit_ratio)
        return sim, node, db

    def _assert_released_after_kill(self, sim, node, process):
        sim.run(until=sim.now + 1.0)   # mid-charge: a slot is held
        assert node.cpu.in_use + node.disk.in_use >= 1
        process.kill("probe")
        sim.run(until=sim.now + 50.0)
        assert node.cpu.in_use == 0
        assert node.disk.in_use == 0

    def test_wal_flush_releases_on_kill(self):
        sim, node, db = self._db()
        db.wal.append_commit("t1", {"item-0": 1})
        process = sim.spawn(db.wal.flush())
        self._assert_released_after_kill(sim, node, process)

    def test_buffer_flush_some_releases_on_kill(self):
        sim, node, db = self._db()
        db.buffer.write_item_async("item-0")
        process = sim.spawn(db.buffer.flush_some())
        self._assert_released_after_kill(sim, node, process)

    def test_buffer_write_sync_releases_on_kill(self):
        sim, node, db = self._db(hit_ratio=0.0)   # force the disk path
        process = sim.spawn(db.buffer.write_item_sync("item-0"))
        self._assert_released_after_kill(sim, node, process)

    def test_engine_read_releases_on_kill(self):
        from repro.db.operations import make_program

        sim, node, db = self._db(hit_ratio=0.0)
        txn = db.begin(make_program([("r", "item-0")]))
        process = sim.spawn(db.read(txn, "item-0"))
        self._assert_released_after_kill(sim, node, process)

    def test_dispatcher_loop_releases_on_kill(self):
        from repro.network.dispatch import Dispatcher
        from repro.network.message import Message
        from repro.network.node import Node

        sim = Simulator(seed=3)
        node = Node(sim, "s1")
        dispatcher = Dispatcher(sim, node)
        dispatcher.register("PING", lambda message: None)
        dispatcher.start()
        node.inbox.put(Message(sender="s2", destination="s1", kind="PING"))
        sim.run(until=0.01)            # mid network-CPU charge (0.07 ms)
        assert node.cpu.in_use == 1
        node.crash()                   # kills the loop; cancel_all clears
        node.recover()
        sim.run(until=5.0)
        assert node.cpu.in_use == 0


class TestStreamInterning:
    def test_hoisted_stream_handles_draw_identically(self):
        from repro.sim.rng import RandomStreams

        named = RandomStreams(42)
        interned = RandomStreams(42)
        stream = interned.stream("workload.item")
        named_draws = [named.uniform("workload.item", 0.0, 1.0)
                       for _ in range(100)]
        interned_draws = [stream.uniform(0.0, 1.0) for _ in range(100)]
        assert named_draws == interned_draws

    def test_stream_creation_order_does_not_change_seeds(self):
        from repro.sim.rng import RandomStreams

        forward = RandomStreams(7)
        backward = RandomStreams(7)
        a_first = forward.stream("a").random()
        forward.stream("b")
        backward.stream("b")
        a_second = backward.stream("a").random()
        assert a_first == a_second
