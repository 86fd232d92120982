"""Rejoin bugs: (i), (ii) and the 2-safe replay case, all fixed.

Both were found while the perf ledger was being defined (benchmarks/ledger/
README.md, "Found while measuring") and are why its ``paxos_leader_failover``
workload rejoins the old leader in an idle drain.  Bug (i), a submission
never answered, is fixed: a rejoined fixed sequencer's JOIN reply set its
next sequence number back below what its takeover collection had raised it
to, and it gave a number another member had already assigned to a second
message.  The rejoin now installs the delivery horizon alone.  Bug (ii), a
rejoined member missing group-delivered transactions and then diverging, is
fixed: the JOIN reply installed a peer's delivery horizon with a checkpoint
that did not yet reflect every delivery inside it, and now installs the
sequence the checkpoint names.  Their tests are plain tests, together with
every schedule known to have failed them.

Three more holes on the same path are fixed and have plain tests: a
group-1-safe checkpoint taken while a synchronous apply runs names that
transaction, crash recovery redoes the log in commit order, and the 2-safe
replay case.  That case certified a replayed, unacknowledged delivery
against a redo state that already held a later commit whose record had
flushed first.  Every level now appends its COMMIT record at the decision,
in delivery order, so a flushed log is a prefix of the decisions and a
replayed delivery that is already decided is answered from the log.

Configuration of the pinned pair: the Table 4 cluster (9 servers, 10 000
items), group-safe over ``multi-paxos`` with the heartbeat detector (10 ms
period, 50 ms timeout), open-loop Poisson arrivals at 30 tps; the
coordinator is crashed a third into a 20 000 ms window that follows
2 000 ms of warm-up.  Each bug also has a 3-server schedule that runs in a
fraction of a second (``SimulationParameters.small(server_count=3,
item_count=100)``, group-safe at 30 tps, the coordinator crashed at 500 ms,
1 000 ms more load after its recovery, then 10 000 ms of quiet).

Two pinned runs started passing before their bugs were fixed, because the
Multi-Paxos per-member catch-up moved their schedules: the 9-server bug (i)
run and the 3-server bug (ii) run at seed 9.  They stayed as plain tests,
and still-failing schedules of the same rejoin sweep were pinned beside
them: the fixed sequencer with the heartbeat detector (seed 10, a 3 000 ms
outage: no Multi-Paxos rejoin schedule of seeds 1-1 000 on 3 servers,
1-300 on 5 and 1-300 on 9 leaves a request unanswered any more) and
Multi-Paxos at seed 637.
"""

from __future__ import annotations

import pytest

from repro.core.audit import SafetyAudit
from repro.db import LogRecordType
from repro.replication import ReplicatedDatabaseCluster
from repro.workload import OpenLoopClientPool, SimulationParameters

WARMUP_MS = 2_000.0
WINDOW_MS = 20_000.0
CRASH_AT_MS = WARMUP_MS + WINDOW_MS / 3.0          # 8 667 ms


#: The pinned runs' detector: heartbeats every 10 ms, suspicion at 50 ms.
HEARTBEAT = dict(failure_detector_mode="heartbeat", heartbeat_period=10.0,
                 heartbeat_timeout=50.0)
#: The pinned runs' stack: Multi-Paxos with the heartbeat detector.
PAXOS_HEARTBEAT = dict(broadcast_engine="multi-paxos", **HEARTBEAT)


def _run_leader_outage(seed: int, recover_at_ms: float, load_until_ms: float,
                       settle_ms: float, params=None,
                       crash_at_ms: float = CRASH_AT_MS,
                       technique: str = "group-safe",
                       follower: bool = False):
    """Crash the coordinator (or, with ``follower``, the last server),
    recover it under load, then let the group idle."""
    if params is None:
        params = SimulationParameters.paper().with_overrides(**PAXOS_HEARTBEAT)
    cluster = ReplicatedDatabaseCluster(technique, params=params, seed=seed)
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=30.0)
    clients.start()
    cluster.run(until=crash_at_ms)
    last = cluster.server_names()[-1]
    leader = last if follower else cluster.gcs.endpoint(last).coordinator()
    cluster.crash_server(leader)
    cluster.run(until=recover_at_ms)
    cluster.recover_server(leader)
    cluster.run(until=load_until_ms)
    # The pool re-reads load_tps for every gap: a vanishing rate ends the
    # arrivals, and whatever is in flight has settle_ms to be answered.
    clients.load_tps = 1e-12
    cluster.run(until=load_until_ms + settle_ms)
    return cluster, clients, leader


@pytest.fixture(scope="module")
def unanswered_run():
    """Bug (i): cell seed 12, leader recovered at 15 333 ms."""
    _cluster, clients, _leader = _run_leader_outage(
        seed=12, recover_at_ms=WARMUP_MS + 2.0 * WINDOW_MS / 3.0,
        load_until_ms=24_000.0, settle_ms=6_000.0)
    return clients.submitted_count, len(clients.results)


def _small_outage(seed: int, recover_at_ms: float, server_count: int = 3,
                  technique: str = "group-safe", follower: bool = False,
                  **overrides):
    """The 3-server schedule: crash at 500 ms, recover at ``recover_at_ms``."""
    params = SimulationParameters.small(
        server_count=server_count, item_count=100).with_overrides(**overrides)
    return _run_leader_outage(seed=seed, recover_at_ms=recover_at_ms,
                              load_until_ms=recover_at_ms + 1_000.0,
                              settle_ms=10_000.0, params=params,
                              crash_at_ms=500.0, technique=technique,
                              follower=follower)


def _rejoin_signature(cluster, clients, leader):
    """Whether ``leader`` is back in the view, the group-delivered commits
    missing on it and the items on which the replicas diverge."""
    rejoined = cluster.database(leader).wal
    # Read-only transactions commit on their delegate alone, so only those
    # delivered to the group can be missing on the rejoined replica.
    missing = [result.txn_id for result in clients.results
               if result.committed and result.delivered_to_group
               and not rejoined.has_committed(result.txn_id)]
    return (leader in cluster.gcs.membership.view, missing,
            SafetyAudit(cluster).divergent_items())


@pytest.fixture(scope="module")
def rejoin_run():
    """Bug (ii): cell seed 92, leader s1 recovered at 23 000 ms."""
    return _rejoin_signature(*_run_leader_outage(
        seed=92, recover_at_ms=23_000.0, load_until_ms=24_000.0,
        settle_ms=30_000.0))


@pytest.fixture(scope="module")
def small_rejoin_run():
    """Bug (ii) on 3 servers: Multi-Paxos, heartbeat detector, seed 637, s1
    recovered at 6 500 ms."""
    return _rejoin_signature(*_small_outage(
        seed=637, recover_at_ms=6_500.0, **PAXOS_HEARTBEAT))


def test_every_request_is_answered_when_the_old_leader_rejoins_under_load(
        unanswered_run):
    # A strict xfail until the leader change and the rejoin stopped
    # re-sending history: the transaction submitted to s6 at 15 205 ms then
    # stayed pending on a running delegate.
    submitted, answered = unanswered_run
    assert submitted == answered


def test_rejoined_leader_holds_every_confirmed_transaction(rejoin_run):
    # Before the JOIN reply named the delivery its checkpoint reflects, 9
    # group-delivered transactions were applied on s2-s9 but never on the
    # rejoined s1, and 65 items diverged after 30 000 ms of quiet.
    in_view, missing, divergent = rejoin_run
    assert in_view
    assert missing == []
    assert divergent == []


def test_every_request_is_answered_when_the_coordinator_rejoins_on_3_servers():
    # The default stack, seed 28, s1 recovered at 3 500 ms: s2 had put
    # s3#48 at 98, and s1's JOIN reply set s1's next sequence number back
    # below it after its takeover had raised it past it, so s1 put s2's
    # submission of 3 455.5 ms at 98 too.  145 of 146 were answered.
    _cluster, clients, _leader = _small_outage(seed=28, recover_at_ms=3_500.0)
    assert clients.submitted_count == len(clients.results) == 146


def test_every_request_is_answered_when_a_suspected_coordinator_rejoins():
    # The heartbeat detector's schedule, seed 10, s1 recovered at
    # 3 500 ms: sequence 96 was reused the same way, and s2's submission of
    # 3 471.3 ms stayed pending (136 of 137 answered).
    _cluster, clients, _leader = _small_outage(
        seed=10, recover_at_ms=3_500.0, **HEARTBEAT)
    assert clients.submitted_count == len(clients.results) == 137


#: The fixed-sequencer schedules of the 3-server coordinator-rejoin sweep
#: (seeds 1-100 x outages of 3, 6 and 14 s) that left one submission
#: unanswered before the rejoin stopped setting the sequencer's next
#: number back, as (detector, seed, outage in ms).
BUG_I_SCHEDULES = [
    ("perfect", 28, 3_000.0), ("perfect", 55, 3_000.0),
    ("perfect", 72, 6_000.0), ("perfect", 93, 6_000.0),
    ("perfect", 100, 14_000.0),
    ("heartbeat", 10, 3_000.0), ("heartbeat", 25, 3_000.0),
    ("heartbeat", 26, 3_000.0), ("heartbeat", 72, 6_000.0),
    ("heartbeat", 89, 6_000.0), ("heartbeat", 93, 6_000.0),
    ("heartbeat", 16, 14_000.0), ("heartbeat", 28, 14_000.0),
    ("heartbeat", 43, 14_000.0), ("heartbeat", 90, 14_000.0),
]


@pytest.mark.parametrize("detector,seed,outage_ms", BUG_I_SCHEDULES)
def test_every_request_is_answered_when_a_fixed_sequencer_rejoins(
        detector, seed, outage_ms):
    overrides = HEARTBEAT if detector == "heartbeat" else {}
    cluster, clients, leader = _small_outage(
        seed=seed, recover_at_ms=500.0 + outage_ms, **overrides)
    assert clients.submitted_count == len(clients.results)
    in_view, missing, divergent = _rejoin_signature(cluster, clients, leader)
    assert in_view
    assert missing == []
    assert divergent == []


def test_rejoined_leader_holds_every_confirmed_transaction_on_3_servers(
        small_rejoin_run):
    # The JOIN reply paired a delivery horizon with a checkpoint that did
    # not yet reflect every delivery inside it: s3 answered with horizon 188
    # while its delivery loop had handed 187 deliveries upward (21 missing,
    # 89 divergent).  It now answers with the sequence its certifier
    # decided last.
    in_view, missing, divergent = small_rejoin_run
    assert in_view
    assert missing == []
    assert divergent == []


def test_rejoined_leader_holds_every_confirmed_transaction_at_seed_9():
    # The 3-server schedule of bug (ii) until the leader change and the
    # rejoin stopped re-sending history: 15 transactions were missing on
    # s1 and 74 items diverged.  Both JOIN replies now pair horizon 193
    # with a checkpoint that holds all 193 deliveries.
    in_view, missing, divergent = _rejoin_signature(*_small_outage(
        seed=9, recover_at_ms=6_500.0, **PAXOS_HEARTBEAT))
    assert in_view
    assert missing == []
    assert divergent == []


#: The Multi-Paxos schedules that failed bug (ii) before its fix, as
#: (servers, seed, outage in ms, detector) with the (missing, divergent)
#: they had: the rejoin sweep's failures on 3 and 5 servers.
BUG_II_SCHEDULES = [
    (3, 471, 14_000.0, "heartbeat"),     # 20 missing, 87 divergent
    (3, 746, 6_000.0, "heartbeat"),      # 18, 90
    (3, 802, 14_000.0, "heartbeat"),     # 17, 81
    (3, 192, 14_000.0, "perfect"),       # 5, 50
    (3, 543, 14_000.0, "perfect"),       # 13, 71
    (5, 236, 3_000.0, "heartbeat"),      # 24, 87
]


@pytest.mark.parametrize("server_count,seed,outage_ms,detector",
                         BUG_II_SCHEDULES)
def test_rejoined_leader_holds_every_confirmed_transaction_after_an_outage(
        server_count, seed, outage_ms, detector):
    overrides = PAXOS_HEARTBEAT if detector == "heartbeat" \
        else dict(broadcast_engine="multi-paxos")
    in_view, missing, divergent = _rejoin_signature(*_small_outage(
        seed=seed, recover_at_ms=500.0 + outage_ms,
        server_count=server_count, **overrides))
    assert in_view
    assert missing == []
    assert divergent == []


def _missing_and_divergent(cluster, clients, leader):
    _in_view, missing, divergent = _rejoin_signature(cluster, clients, leader)
    return len(missing), len(divergent)


@pytest.mark.parametrize("overrides", [{}, PAXOS_HEARTBEAT], ids=[
    "fixed-sequencer-perfect",          # 6 missing
    "multi-paxos-heartbeat",            # 7 missing
])
def test_a_group_1_safe_checkpoint_names_the_commits_it_holds(overrides):
    # Seed 58, a 6 000 ms coordinator outage.  A synchronous apply used to
    # append its COMMIT record after its disk writes, not at the decision;
    # a checkpoint taken in between held the writes but not the
    # transaction id, so the joiner never held that commit.
    signature = _rejoin_signature(*_small_outage(
        seed=58, recover_at_ms=6_500.0, technique="group-1-safe",
        **overrides))
    assert signature == (True, [], [])


def test_a_2_safe_follower_redoes_its_log_in_commit_order():
    # Seed 4, s3 recovered at 3 500 ms on the fixed sequencer.  Synchronous
    # applies used to flush out of commit order, and redo in log order
    # skipped an older install under the Thomas write rule, so an item came
    # back a version short of its peers': 62 commits missing, 100 items
    # divergent.
    signature = _rejoin_signature(*_small_outage(
        seed=4, recover_at_ms=3_500.0, technique="2-safe", follower=True))
    assert signature == (True, [], [])


def test_a_2_safe_follower_holds_every_confirmed_transaction():
    # The 2-safe replay case, fixed sequencer, perfect detector, seed 36,
    # the follower s3 recovered at 3 500 ms: 76 missing, 100 divergent
    # while a later commit's record could flush before an earlier one's.
    assert _missing_and_divergent(*_small_outage(
        seed=36, recover_at_ms=3_500.0, technique="2-safe",
        follower=True)) == (0, 0)


#: The 3-server coordinator-rejoin schedules on which 2-safe lost
#: confirmed commits (63-266 missing each) while a synchronous apply
#: appended its COMMIT record after its page writes: seeds 2 and 11 x
#: outages of 3, 6 and 14 s x both engines x both detectors.
REPLAY_SCHEDULES = [
    (engine, detector, seed, outage_ms)
    for engine in ("fixed-sequencer", "multi-paxos")
    for detector in ("perfect", "heartbeat")
    for seed in (2, 11)
    for outage_ms in (3_000.0, 6_000.0, 14_000.0)]


@pytest.mark.parametrize("engine,detector,seed,outage_ms", REPLAY_SCHEDULES)
def test_a_2_safe_coordinator_holds_every_confirmed_transaction(
        engine, detector, seed, outage_ms):
    overrides = dict(broadcast_engine=engine)
    if detector == "heartbeat":
        overrides.update(HEARTBEAT)
    assert _missing_and_divergent(*_small_outage(
        seed=seed, recover_at_ms=500.0 + outage_ms, technique="2-safe",
        **overrides)) == (0, 0)


@pytest.mark.parametrize("technique", ["group-safe", "group-1-safe",
                                       "2-safe"])
def test_synchronous_levels_log_commits_in_commit_order(technique):
    # 3 servers, 30 tps for 2 000 ms, seed 1, no crash.  While the
    # synchronous levels appended their COMMIT after the page writes, 23
    # of the 125 stable COMMIT records on each followed one with a higher
    # commit order; a redo or a replay then saw a later commit without an
    # earlier one.
    params = SimulationParameters.small(server_count=3, item_count=100)
    cluster = ReplicatedDatabaseCluster(technique, params=params, seed=1)
    cluster.start()
    OpenLoopClientPool(cluster, load_tps=30.0).start()
    cluster.run(until=2_000.0)
    for name in cluster.server_names():
        orders = [record.commit_order
                  for record in cluster.database(name).wal.stable_records()
                  if record.record_type is LogRecordType.COMMIT]
        assert len(orders) > 40
        assert orders == sorted(orders), name
