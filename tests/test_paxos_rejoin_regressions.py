"""Two Multi-Paxos rejoin bugs, pinned as strict expected failures.

Both were found while the perf ledger was being defined (benchmarks/ledger/
README.md, "Found while measuring") and are why its ``paxos_leader_failover``
workload rejoins the old leader in an idle drain.  Neither is fixed yet: the
tests state the property that must hold, ``xfail(strict=True)`` turns the day
one of them starts passing into a failure that asks for the marker's removal.

Configuration of both: the Table 4 cluster (9 servers, 10 000 items),
group-safe over ``multi-paxos`` with the heartbeat detector (10 ms period,
50 ms timeout), open-loop Poisson arrivals at 30 tps; the coordinator is
crashed a third into a 20 000 ms window that follows 2 000 ms of warm-up.

Each run is made once, in a module fixture the xfails share with
``test_known_failure_signatures_do_not_grow``, which pins how large each
failure is: a change that makes a known bug worse fails tier-1.
"""

from __future__ import annotations

import pytest

from repro.core.audit import SafetyAudit
from repro.replication import ReplicatedDatabaseCluster
from repro.workload import OpenLoopClientPool, SimulationParameters

WARMUP_MS = 2_000.0
WINDOW_MS = 20_000.0
CRASH_AT_MS = WARMUP_MS + WINDOW_MS / 3.0          # 8 667 ms


def _run_leader_outage(seed: int, recover_at_ms: float, load_until_ms: float,
                       settle_ms: float):
    """Crash the Paxos leader, recover it under load, then let the group idle."""
    params = SimulationParameters.paper().with_overrides(
        broadcast_engine="multi-paxos", failure_detector_mode="heartbeat",
        heartbeat_period=10.0, heartbeat_timeout=50.0)
    cluster = ReplicatedDatabaseCluster("group-safe", params=params, seed=seed)
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=30.0)
    clients.start()
    cluster.run(until=CRASH_AT_MS)
    leader = cluster.gcs.endpoint(cluster.server_names()[-1]).coordinator()
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


@pytest.fixture(scope="module")
def rejoin_run():
    """Bug (ii): cell seed 92, leader s1 recovered at 23 000 ms.

    Returns whether the leader is back in the view, the group-delivered
    commits missing on it and the items on which the replicas diverge.
    """
    cluster, clients, leader = _run_leader_outage(
        seed=92, recover_at_ms=23_000.0, load_until_ms=24_000.0,
        settle_ms=30_000.0)
    rejoined = cluster.database(leader).wal
    # Read-only transactions commit on their delegate alone, so only those
    # delivered to the group can be missing on the rejoined replica.
    missing = [result.txn_id for result in clients.results
               if result.committed and result.delivered_to_group
               and not rejoined.has_committed(result.txn_id)]
    return (leader in cluster.gcs.membership.view, missing,
            SafetyAudit(cluster).divergent_items())


@pytest.mark.xfail(strict=True, reason="Multi-Paxos: a transaction in flight "
                   "when the old leader rejoins may never be answered")
def test_every_request_is_answered_when_the_old_leader_rejoins_under_load(
        unanswered_run):
    # The transaction submitted to s6 at 15 205 ms is still pending on a
    # running delegate long after.
    submitted, answered = unanswered_run
    assert submitted == answered


@pytest.mark.xfail(strict=True, reason="Multi-Paxos: a transaction confirmed "
                   "as the old leader rejoins may be missing on it")
def test_rejoined_leader_holds_every_confirmed_transaction(rejoin_run):
    # 13 group-delivered transactions are applied on s2-s9 but never on the
    # rejoined s1, and 95 items diverge after 30 000 ms of quiet.  Some were
    # confirmed before s1 recovered (from 22 838 ms), so the state-transfer
    # checkpoint should have carried them; others after it (up to
    # 24 096 ms), so s1 also missed the live stream.
    in_view, missing, divergent = rejoin_run
    assert in_view
    assert missing == []
    assert divergent == []


def test_known_failure_signatures_do_not_grow(unanswered_run, rejoin_run):
    """The two strict xfails above fail for the reasons they name, at the
    size they have: a change that makes either bug bigger (or smaller)
    fails here and must re-pin the signature knowingly.  The fix of a bug
    deletes its line here together with its xfail marker."""
    assert unanswered_run == (736, 735)
    in_view, missing, divergent = rejoin_run
    assert in_view
    assert (len(missing), len(divergent)) == (13, 95)
