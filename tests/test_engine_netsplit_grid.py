"""Both total-order engines under netsplits: the blocking/progress grid.

The grid half runs the netsplit cells over *both* engines and pins the
quorum discipline: a partitioned-away minority never confirms anything, a
majority with a working coordinator keeps committing, a majority whose
coordinator sits in the minority blocks under a blind detector and fails
over under a detecting one — and after the heal the group converges with
zero lost or duplicated commits, no server restarted: what a member lost
during the split reaches it through the engines' own catch-up.

The regression half guards two fixed-sequencer bugs the netsplit injection
originally exposed:

* an alive-but-excluded sequencer re-asserted its ordering state on
  rejoin, delivering a *different* message under an already-delivered
  sequence number — a split-brain total-order violation (now every entry
  carries the ballot that assigned it, and a member delivers an entry only
  at the ballot of the decision that covers it);
* a new sequencer assigned sequence numbers before its takeover collection
  completed, wedging the re-submitted message forever (now nothing is
  assigned before a quorum has promised).
"""

from __future__ import annotations

import pytest

from repro.db.operations import Operation, OperationType, TransactionProgram
from repro.experiments.netsplit_matrix import run_group_netsplit_scenario
from repro.gcs.engines import engine_names
from repro.network import LinkFault
from repro.obs.tracer import Observability
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.workload import SimulationParameters
from tests.reference_broadcast import broadcast_trace

ENGINES = tuple(engine_names())


def _write_program(key: str, value: str, client: str) -> TransactionProgram:
    return TransactionProgram(
        client=client,
        operations=(Operation(OperationType.WRITE, key, value),))


def _cluster(engine: str, seed: int = 1, **overrides
             ) -> ReplicatedDatabaseCluster:
    params = SimulationParameters.small(server_count=3, item_count=100) \
        .with_overrides(broadcast_engine=engine, **overrides)
    cluster = ReplicatedDatabaseCluster("group-1-safe", params=params,
                                        seed=seed)
    cluster.start()
    return cluster


# ---------------------------------------------------------------- the grid
@pytest.mark.parametrize("engine", ENGINES)
def test_blind_coordinator_split_blocks_both_sides(engine):
    """Perfect detector + coordinator in the minority: nobody commits.

    The oracle detector never fires on a link fault, so no view change
    removes the partitioned-away coordinator — the majority has a quorum
    but no sequencer/leader, the minority has the coordinator but no
    quorum.  Everything blocks; nothing may be lost.
    """
    outcome = run_group_netsplit_scenario(engine,
                                          "split-minority-coordinator",
                                          "perfect", seed=1)
    assert outcome.majority_commits == 0
    assert outcome.minority_commits == 0
    assert not outcome.observed_loss
    assert outcome.findings == []
    assert outcome.post_heal_ok and outcome.converged
    assert outcome.sound and outcome.matched
    assert outcome.demonstrated


@pytest.mark.parametrize("engine", ENGINES)
def test_follower_split_majority_keeps_committing(engine):
    """Coordinator on the majority side: the majority never stops."""
    outcome = run_group_netsplit_scenario(engine, "split-minority-follower",
                                          "perfect", seed=1)
    assert outcome.majority_commits == 3
    assert outcome.minority_commits == 0
    assert outcome.findings == []
    assert outcome.post_heal_ok and outcome.converged
    assert outcome.sound and outcome.matched


@pytest.mark.parametrize("engine", ENGINES)
def test_detected_coordinator_split_fails_over(engine):
    """Heartbeat detection turns the split into an ordinary failover."""
    outcome = run_group_netsplit_scenario(engine,
                                          "split-minority-coordinator",
                                          "hb-fast", seed=1)
    assert outcome.majority_commits == 3
    assert outcome.minority_commits == 0
    assert outcome.unresolved == 0
    assert outcome.suspicion_count >= 1
    assert outcome.findings == []
    assert outcome.post_heal_ok and outcome.converged
    assert outcome.sound and outcome.matched


@pytest.mark.parametrize("engine", ENGINES)
def test_slow_detector_is_equivalent_to_blindness(engine):
    """A timeout longer than the fault never fires: same as the oracle."""
    outcome = run_group_netsplit_scenario(engine,
                                          "split-minority-coordinator",
                                          "hb-slow", seed=1)
    assert outcome.majority_commits == 0
    assert outcome.minority_commits == 0
    assert outcome.sound and outcome.matched


# ---------------------------------------------------------------- regressions
def test_an_excluded_sequencers_assignment_is_not_delivered_over_a_newer():
    """An alive member partitioned out of the view voids its tenancy.

    The coordinator assigns a sequence number it can never get decided (no
    quorum on its side), then gets excluded by the heartbeat detector while
    the majority goes on under a newer ballot.  After the heal no member
    delivers the stale assignment: every sequence is delivered with one
    message everywhere — keeping the old tenure's entry was the split-brain
    bug — and the stranded write is answered, everywhere or nowhere.
    """
    cluster = _cluster("fixed-sequencer", failure_detector_mode="heartbeat",
                       heartbeat_period=10.0, heartbeat_timeout=60.0)
    sim, lan = cluster.sim, cluster.lan
    obs = Observability(sim)
    waiter = cluster.run_transaction(
        _write_program("item-10", "warmup", client="warmup"), server="s1")
    sim.run_until_complete(waiter, limit=3_000.0)
    assert waiter.value.committed

    lan.schedule_fault(
        LinkFault.partition("split", ("s1",), ("s2", "s3")),
        at=300.0, until=900.0)
    stranded = []
    sim.call_at(310.0, lambda: stranded.append(cluster.run_transaction(
        _write_program("item-20", "stranded", client="minority"),
        server="s1")))
    sim.run(until=600.0)
    endpoint = cluster.gcs.endpoint("s1")
    assert "s1" not in endpoint.group.view().members
    assert not endpoint._established
    cluster.run_transaction(
        _write_program("item-30", "majority", client="majority"),
        server="s2")

    # Heal and require convergence with no server restarted: the stranded
    # write is answered, and it commits everywhere or nowhere.
    sim.run(until=2_200.0)
    names = cluster.server_names()
    by_sequence = {}
    for record in broadcast_trace(obs).deliveries:
        by_sequence.setdefault(record.sequence, set()).add(
            record.broadcast_id)
    assert all(len(ids) == 1 for ids in by_sequence.values()), by_sequence
    for key in ("item-10", "item-20", "item-30"):
        values = {repr(cluster.database(name).value_of(key))
                  for name in names}
        assert len(values) == 1, f"{key} diverged: {values}"
    assert stranded[0].triggered
    if stranded[0].value.committed:
        assert all(cluster.database(name).value_of("item-20") == "stranded"
                   for name in names)


def test_nothing_is_assigned_before_a_quorum_has_promised():
    """A new sequencer must not assign numbers before its collection.

    On the view change the successor collects (``VC_REQUEST`` /
    ``VC_STATE``) and only sequences once a quorum has promised —
    sequencing immediately re-used numbers the old sequencer had decided
    with a quorum that did not include the successor, wedging the
    re-submitted message forever.  A transaction submitted meanwhile waits
    for the quorum, then commits everywhere.
    """
    cluster = _cluster("fixed-sequencer")
    sim = cluster.sim
    warmup = cluster.run_transaction(
        _write_program("item-10", "warmup", client="warmup"), server="s2")
    sim.run_until_complete(warmup, limit=3_000.0)
    assert warmup.value.committed

    sent = []
    lan = cluster.lan
    send, send_all = lan.send, lan.send_all

    def record(message):
        sent.append((sim.now, message.kind, message.sender, message.payload))

    def recording_send(message):
        record(message)
        send(message)

    def recording_send_all(messages):
        messages = list(messages)
        for message in messages:
            record(message)
        send_all(messages)

    lan.send, lan.send_all = recording_send, recording_send_all
    cluster.crash_server("s1")
    waiter = cluster.run_transaction(
        _write_program("item-20", "during-takeover", client="c1"),
        server="s2")
    sim.run_until_complete(waiter, limit=3_000.0)
    assert waiter.value.committed
    for name in cluster.up_servers():
        assert cluster.database(name).value_of("item-20") == "during-takeover"

    # The first SEQ s2 posts follows its quorum-th VC_STATE reply: s2's own
    # and s3's, for the ballot its VC_REQUEST claimed.
    request = next(payload for _, kind, sender, payload in sent
                   if kind == "ABCAST.VC_REQUEST" and sender == "s2")
    first_seq = next(index for index, (_, kind, sender, _) in enumerate(sent)
                     if kind == "ABCAST.SEQ" and sender == "s2")
    promises = {payload["member"] for _, kind, _, payload in sent[:first_seq]
                if kind == "ABCAST.VC_STATE"
                and payload["ballot"] == request["ballot"]}
    assert promises == {"s2", "s3"}
