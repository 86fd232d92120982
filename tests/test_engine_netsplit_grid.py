"""Both total-order engines under netsplits: the blocking/progress grid.

The grid half runs the netsplit cells over *both* engines and pins the
quorum discipline: a partitioned-away minority never confirms anything, a
majority with a working coordinator keeps committing, a majority whose
coordinator sits in the minority blocks under a blind detector and fails
over under a detecting one — and after heal + resync the group converges
with zero lost or duplicated commits.

The regression half guards two fixed-sequencer bugs the netsplit injection
originally exposed:

* an alive-but-excluded sequencer kept its ordering state (``_assigned``,
  ``_next_seq``) and re-asserted it on rejoin, delivering a *different*
  message under an already-delivered sequence number — a split-brain
  total-order violation (now voided by ``_on_excluded``);
* a new sequencer assigned sequence numbers from its stale ``_next_seq``
  before the ``VC_STATE`` collection completed, wedging the re-submitted
  message forever (now prevented by the takeover barrier).
"""

from __future__ import annotations

import pytest

from repro.db.operations import Operation, OperationType, TransactionProgram
from repro.experiments.netsplit_matrix import run_group_netsplit_scenario
from repro.gcs.engines import engine_names
from repro.network import LinkFault
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.workload import SimulationParameters

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
def test_excluded_sequencer_forfeits_its_ordering_state():
    """An alive member partitioned out of the view voids its tenancy.

    The coordinator assigns a sequence number it can never stabilise
    (no quorum on its side), then gets excluded by the heartbeat detector.
    Exclusion must clear every piece of sequencer state — keeping it was
    the split-brain bug: the stale assignment resurfaced on rejoin and a
    different message was delivered under an already-used sequence number.
    """
    cluster = _cluster("fixed-sequencer", failure_detector_mode="heartbeat",
                       heartbeat_period=10.0, heartbeat_timeout=60.0)
    sim, lan = cluster.sim, cluster.lan
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
    # Tenancy voided: nothing assigned, nothing acknowledged, no sequenced
    # ids that could suppress a legitimate reassignment after rejoin.
    assert endpoint._assigned == {}
    assert endpoint._acks == {}
    assert endpoint._sequenced_ids == set()
    assert endpoint._pending == {}
    # The stranded broadcast went back to the unsequenced pool so the
    # rejoin view change re-submits it for fresh sequencing.
    assert len(endpoint._unsequenced) == 1

    # Heal, resync through crash-recovery, and require convergence: the
    # stranded write must either commit everywhere or nowhere.
    sim.run(until=1_200.0)
    cluster.crash_server("s1")
    sim.run(until=sim.now + 120.0)
    cluster.recover_server("s1")
    sim.run(until=sim.now + 1_000.0)
    names = cluster.server_names()
    for key in ("item-10", "item-20"):
        values = {repr(cluster.database(name).value_of(key))
                  for name in names}
        assert len(values) == 1, f"{key} diverged: {values}"
    result = stranded[0].value if stranded[0].triggered else None
    if result is not None and result.committed:
        assert all(cluster.database(name).value_of("item-20") == "stranded"
                   for name in names)


def test_takeover_barrier_holds_until_state_is_collected():
    """A new sequencer must not assign numbers before ``VC_STATE`` sync.

    On the view change the successor raises the takeover barrier and only
    sequences once a quorum has answered — sequencing immediately re-used
    numbers the old sequencer had stabilised with a quorum that did not
    include the successor, wedging the re-submitted message forever.
    """
    cluster = _cluster("fixed-sequencer")
    sim = cluster.sim
    warmup = cluster.run_transaction(
        _write_program("item-10", "warmup", client="warmup"), server="s2")
    sim.run_until_complete(warmup, limit=3_000.0)
    assert warmup.value.committed

    endpoint = cluster.gcs.endpoint("s2")
    cluster.crash_server("s1")
    # Advance just past the view change (the oracle detector's announcement
    # is one event hop after the crash) — the successor is now collecting
    # state and the barrier is up, but no VC_STATE reply has crossed the
    # network yet (that takes a full round trip).
    deadline = sim.now + 10.0
    while endpoint._takeover_waiting is None and sim.now < deadline:
        sim.run(until=sim.now + 0.1)
    assert endpoint.coordinator() == "s2"
    assert endpoint._takeover_waiting == {"s2", "s3"}

    # A transaction submitted while the barrier is up must still commit —
    # its DATA is buffered, then sequenced after the quorum answers.
    waiter = cluster.run_transaction(
        _write_program("item-20", "during-takeover", client="c1"),
        server="s2")
    sim.run_until_complete(waiter, limit=3_000.0)
    assert endpoint._takeover_waiting is None
    assert waiter.value.committed
    for name in cluster.up_servers():
        assert cluster.database(name).value_of("item-20") == "during-takeover"
