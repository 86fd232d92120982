"""The broadcast-engine stack: the engine table, golden-trace
digests proving the fixed sequencer reproduces the seed bit-for-bit, and the
technique x engine equivalence grid over Multi-Paxos."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.core.audit import ConfirmedWrite, audit_writes
from repro.gcs import FixedSequencerEngine, MultiPaxosEngine
from repro.gcs.engines import (DEFAULT_ENGINE, ENGINES, engine_names,
                               resolve_engine)
from repro.network.lan import Lan
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.workload import OpenLoopClientPool, SimulationParameters


# ---------------------------------------------------------------- registry
def test_builtin_engines_are_registered_with_the_seed_default():
    assert DEFAULT_ENGINE == "fixed-sequencer"
    names = engine_names()
    assert "fixed-sequencer" in names
    assert "multi-paxos" in names
    assert SimulationParameters.small().broadcast_engine == DEFAULT_ENGINE


def test_resolve_unknown_engine_names_the_choices():
    with pytest.raises(KeyError, match="unknown broadcast engine"):
        resolve_engine("zab")


def test_engine_table_names_each_endpoint_class_and_description():
    assert resolve_engine("fixed-sequencer") is FixedSequencerEngine
    assert resolve_engine("multi-paxos") is MultiPaxosEngine
    assert engine_names() == list(ENGINES)
    assert all(description for _engine_class, description in ENGINES.values())


def test_unknown_engine_fails_at_cluster_construction():
    params = SimulationParameters.small(
        server_count=3, item_count=120).with_overrides(broadcast_engine="zab")
    with pytest.raises(KeyError, match="unknown broadcast engine"):
        ReplicatedDatabaseCluster("group-safe", params=params, seed=1)


# ---------------------------------------------------------------- harness
def trace_digest(trace):
    hasher = hashlib.sha256()
    for entry in trace:
        hasher.update(repr(entry).encode())
    return hasher.hexdigest()


def model_digest(deliveries, results):
    """SHA-256 of what the model did and when: every LAN delivery as
    ``(time, sender, destination, kind)``, then every client reply as
    ``(submission index, response time, committed)`` — nothing of the
    kernel's private event list, so it survives any change that only
    reschedules events.  The index stands in for the transaction id, whose
    number comes from a process-wide counter (earlier tests move it)."""
    replies = [(index, entry.value.response_time, entry.value.committed)
               for index, entry in enumerate(results) if entry.triggered]
    return trace_digest(deliveries + replies)


def run_scenario(technique, *, seed=11, engine=DEFAULT_ENGINE,
                 detector="perfect", crash_coordinator=False, log_time=0.0,
                 traced=False):
    """One 24-transaction closed scenario, optionally crashing s1.

    Returns ``(cluster, results, trace, deliveries)`` — the same driver the
    golden digests were captured with, byte for byte.  ``traced`` records
    the kernel's event trace and, from outside the program, every LAN
    delivery (both ``None`` otherwise).
    """
    params = SimulationParameters.small(server_count=3, item_count=120) \
        .with_overrides(broadcast_engine=engine,
                        failure_detector_mode=detector)
    cluster = ReplicatedDatabaseCluster(technique, params=params, seed=seed,
                                        gcs_delivery_log_time=log_time)
    trace = deliveries = None
    if traced:
        trace = cluster.sim.enable_trace()
        deliveries = []
        lan, deliver = cluster.lan, cluster.lan._deliver

        def recording_deliver(message, destination):
            deliveries.append((lan.sim.now, message.sender,
                               message.destination, message.kind))
            deliver(message, destination)

        lan._deliver = recording_deliver
    cluster.start()
    servers = cluster.server_names()
    results = []

    def driver():
        for index in range(24):
            program = cluster.workload.next_program()
            delegate = servers[index % len(servers)]
            if cluster.nodes[delegate].is_crashed:
                delegate = cluster.up_servers()[0]
            results.append(cluster.submit(program, server=delegate))
            yield cluster.sim.timeout(25.0)

    cluster.sim.spawn(driver())
    if crash_coordinator:
        cluster.run(until=220.0)
        cluster.crash_server("s1")
        cluster.run(until=320.0)
        recovery = cluster.recover_server("s1")
        cluster.run(until=1_400.0)
        assert recovery.ok, recovery
    else:
        cluster.run(until=1_400.0)
    return cluster, results, trace, deliveries


def scenario_stats(cluster, results):
    committed = [entry.value.txn_id for entry in results
                 if entry.triggered and entry.value.committed]
    responded = [entry for entry in results if entry.triggered]
    return (len(committed), len(responded), cluster.lan.sent_count,
            cluster.lan.delivered_count, cluster.sim.scheduled_events)


# ---------------------------------------------------------------- golden digests
# Scenarios at seed=11.  Stats are (committed, responded, lan sent, lan
# delivered, scheduled events).  ``model`` pins what the model did (see
# ``model_digest``): no refactor or kernel optimisation may move it or the
# first four stats.  They were the seed's (pre-decomposition, fused
# sequencer+membership) gcs stack until they were re-pinned, once, for the
# announce-once protocol change, PR 21 (old → new in CHANGES.md): the
# sequencer posts one STABLE per stability advance instead of one per late
# ACK, so there are fewer LAN deliveries to digest.  ``(committed,
# responded)`` did not move, and ``test_announce_once_removed_only_stable``
# holds the crash-free scenarios to the parent's deliveries of every other
# kind.  ``digest`` and the scheduled-event count pin the kernel's private
# event list; re-pinned when a resource charge became one event instead of
# two (PR 17), again with PR 21, and when zero-time hand-offs stopped being
# events (PR 23: 5 → 3 events per LAN message, open gates and waiter-less
# completions unqueued; ``model`` and the first four stats untouched).
# The heartbeat scenario's kernel pins moved once more, alone, when the
# per-member beat processes became one tick per phase.  Then a cost-model
# change re-pinned all three on every scenario, once (old → new in
# CHANGES.md): a view-wide post became one network operation — one send
# charge, one LAN broadcast, every copy one latency later — so delivery
# instants moved.  Per-kind delivery counts did not (the test below), and
# of the first four stats only 2-safe-logged's committed did, 17 → 16.
# A second cost-model change re-pinned all three once more (old → new in
# CHANGES.md): a background write charges the CPU once per batch of up to
# 16 pages, not once per page, so disk and CPU queues clear at other
# instants and certification outcomes move.  The crash-free scenarios kept
# their per-kind delivery counts; in the crash scenarios the crash instant
# now cuts the message flow elsewhere, so those counts moved with it.
# ``digest`` and the scheduled-event count were re-pinned alone once more
# when the write-behind and group-commit loops stopped taking a kernel
# event for a tick with nothing to do (``repro.sim.poll``), and again when
# an A-delivery became a served store's charge, not a process's wake-up,
# and a group-safe apply stopped being a process of its own.
# 2-safe-crash's ``model`` alone was re-pinned once (old → new in
# CHANGES.md) when the end-to-end catch-up became the JOIN exchange: the
# rejoiner's request and its replies are named ``ABCAST.JOIN`` /
# ``ABCAST.JOIN_REPLY``, not ``ABCAST.E2E.SYNC_REQUEST`` / ``_REPLY``.  The
# parent's delivery list with those two kinds renamed hashes to the new
# digest; its stats and ``digest`` did not move.  2-safe-crash alone was
# re-pinned once more (old → new in CHANGES.md) when a new fixed sequencer
# began collecting from its own horizon: the recovered s1 takes, in s2's
# VC_STATE, the assignments 7-10 s2 made while s1 was down, and delivers
# them at once instead of after its JOIN reply, so s1:19 is certified
# against them and aborts.  No message count moved.
GOLDEN = {
    "group-safe": dict(
        technique="group-safe", crash=False, log_time=0.0,
        digest="7c662a44131ef49b198a46ae382c959c55bcac9b"
               "5288688034ef75c565b34711",
        model="933e952095dc96be84a20144cd25c63d4f003b15"
              "fee8dd8e5815e5249bbb1121",
        stats=(18, 24, 240, 240, 1567)),
    "group-1-safe": dict(
        technique="group-1-safe", crash=False, log_time=0.0,
        digest="e0ed729e6947627546bd429586a34f51ec687d80"
               "88402f5e1e28b5e20e31d898",
        model="ee1e6660965a5a800e1485d4318e82e19b81307f"
              "6211aa2f174f83f8cf8a507a",
        stats=(16, 24, 240, 240, 2015)),
    "2-safe-logged": dict(
        technique="2-safe", crash=False, log_time=0.05,
        digest="9d52029d941790eb05724715f1b90d87b4c06f62"
               "92dd096701bc1dc997be2d5a",
        model="bbd6e95bb1d6f7e38de3c0890256341286f90bdd"
              "8feda743de910a3eb72d7c9d",
        stats=(15, 24, 240, 240, 2217)),
    "group-safe-crash": dict(
        technique="group-safe", crash=True, log_time=0.0,
        digest="106a57caa26ac581f81147c1d89169aca8ee55bb"
               "62e357f2446fb942cdc3de22",
        model="abd17a34e18ea5a1794aedce769e2886354d2257"
              "30b134eb10285c5b0d4a2f13",
        stats=(17, 24, 233, 233, 1531)),
    "2-safe-crash": dict(
        technique="2-safe", crash=True, log_time=0.05,
        digest="2b7ff2a36731802a458c26fb19f16450e6ae59a4"
               "3ee49dce0ea8e2fad4d32b20",
        model="12720b756e3a997a89cd73faa6befbaa5e113686"
              "87b3268ceb847d6b3968fce2",
        stats=(15, 24, 233, 233, 2213)),
    # The one scenario on a heartbeat code path (the five above run the
    # perfect detector): Multi-Paxos, s1 — the leader — crashed and
    # recovered, so beats stop, a suspicion and a restore are swept, and the
    # recovered member beats again at its own phase.  Re-pinned alone, once
    # more (old → new in CHANGES.md), when a beat became a NIC-level
    # keep-alive priced on the wire and not on a CPU: no reception charge
    # means less CPU contention, so delivery instants moved; the first four
    # stats and the per-kind delivery counts (the test below) did not.
    # Re-pinned once more for a protocol change (old → new in CHANGES.md):
    # phase 1 starts at the new leader's delivery horizon and a view change
    # re-posts no history, so fewer ACCEPT, ACCEPTED and LEARN messages are
    # sent; ``(committed, responded)`` did not move.
    "paxos-heartbeat-crash": dict(
        technique="group-safe", engine="multi-paxos", detector="heartbeat",
        crash=True, log_time=0.0,
        digest="0e6ceabc179dd31d67f77539b412b6f19fa576b6"
               "f35ddfb047590ce3dcdd7c8c",
        model="6560f846aa03dc62512cb6e94408272636aa8e34"
              "72b75d3f758fa541007d68c9",
        stats=(17, 24, 1077, 1049, 2210)),
}

#: LAN deliveries per kind of the ``paxos-heartbeat-crash`` scenario, the
#: same with beats received on a CPU (the parent of the keep-alive change)
#: and on the wire.  Batched background writes moved where the crash cuts
#: the ballot (ACCEPT / ACCEPTED 110 → 107, LEARN 154 → 149, PROPOSE
#: 23 → 25); the crash-free run below kept every count.  The per-member
#: catch-up moved only the kinds it names (ACCEPT / ACCEPTED 107 → 65:
#: phase 1 re-proposes no delivered slot; LEARN 149 → 67: no view change
#: re-posts the chosen slots); every other kind kept its count.
HEARTBEAT_SCENARIO_DELIVERIES = {
    "ABCAST.JOIN": 3, "ABCAST.JOIN_REPLY": 2, "PAXOS.ACCEPT": 65,
    "PAXOS.ACCEPTED": 65, "PAXOS.LEARN": 67, "PAXOS.NACK": 2,
    "PAXOS.PREPARE": 11, "PAXOS.PROMISE": 9, "PAXOS.PROPOSE": 25,
    "fd.heartbeat": 822}

#: LAN deliveries per kind of the same Multi-Paxos heartbeat scenario with
#: no crash, the same with background pages written one CPU charge each
#: and one charge per batch.
CRASH_FREE_PAXOS_DELIVERIES = {
    "PAXOS.ACCEPT": 72, "PAXOS.ACCEPTED": 72, "PAXOS.LEARN": 72,
    "PAXOS.PREPARE": 3, "PAXOS.PROMISE": 3, "PAXOS.PROPOSE": 24,
    "fd.heartbeat": 840}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_sequencer_reproduces_the_seed_traces(name):
    golden = GOLDEN[name]
    cluster, results, trace, deliveries = run_scenario(
        golden["technique"], engine=golden.get("engine", DEFAULT_ENGINE),
        detector=golden.get("detector", "perfect"),
        crash_coordinator=golden["crash"], log_time=golden["log_time"],
        traced=True)
    assert scenario_stats(cluster, results) == golden["stats"]
    assert model_digest(deliveries, results) == golden["model"]
    assert trace_digest(trace) == golden["digest"]


#: Per engine, the key of each ordering message: a view post reaches each
#: member once, and each member answers an ACCEPT once, so a second copy to
#: a member is a repair (an ACCEPTED reporting a lost LEARN among them).
ENTRY_KEYS = {
    "fixed-sequencer": {"ABCAST.DATA": ("broadcast_id",),
                        "ABCAST.SEQ": ("sequence",)},
    "multi-paxos": {"PAXOS.PROPOSE": ("broadcast_id",),
                    "PAXOS.ACCEPT": ("ballot", "slot"),
                    "PAXOS.ACCEPTED": ("ballot", "slot", "member"),
                    "PAXOS.LEARN": ("slot",)},
}


@pytest.mark.parametrize("engine", engine_names())
def test_a_failure_free_run_repairs_nothing(engine, monkeypatch):
    """The gap repair fires only on the evidence of a loss: in a
    failure-free group-safe run loaded so that broadcasts overlap, no
    member is posted a SEQ, LEARN or ACCEPT twice (a fill, a re-posted SEQ
    or ACCEPT), no member answers an ACCEPT twice (a lost LEARN reported),
    and no broadcast is submitted twice (a lost submission sent again)."""
    entry_keys = ENTRY_KEYS[engine]
    copies = Counter()
    deliver = Lan._deliver

    def counting_deliver(lan, message, destination):
        keys = entry_keys.get(message.kind)
        if keys is not None:
            copies[(message.kind, destination,
                    tuple(message.payload[key] for key in keys))] += 1
        deliver(lan, message, destination)

    monkeypatch.setattr(Lan, "_deliver", counting_deliver)
    params = SimulationParameters.small(server_count=3, item_count=120) \
        .with_overrides(broadcast_engine=engine)
    cluster = ReplicatedDatabaseCluster("group-safe", params=params, seed=11)
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=800.0)
    clients.start()
    cluster.run(until=300.0)
    clients.load_tps = 1e-12              # ends the arrivals
    cluster.run(until=3_000.0)
    assert len(clients.results) == clients.submitted_count > 200
    assert {kind for kind, _, _ in copies} == set(entry_keys)
    assert set(copies.values()) == {1}


#: LAN deliveries per kind of each crash-free GOLDEN scenario at ``32b64c2``,
#: the parent of the announce-once change: 24 broadcasts to 3 members.
PARENT_DELIVERIES = {"ABCAST.DATA": 24, "ABCAST.SEQ": 72, "ABCAST.ACK": 72,
                     "ABCAST.STABLE": 144}


@pytest.mark.parametrize("name", ("group-safe", "group-1-safe",
                                  "2-safe-logged"))
def test_announce_once_removed_only_stable(name):
    """What licensed the PR-21 re-pin: against the parent, the crash-free
    scenarios lost STABLE deliveries (the quorum-th and every later ACK
    each re-announced the horizon) and nothing else."""
    golden = GOLDEN[name]
    _, _, _, deliveries = run_scenario(
        golden["technique"], log_time=golden["log_time"], traced=True)
    kinds = Counter(kind for _, _, _, kind in deliveries)
    assert kinds == {**PARENT_DELIVERIES, "ABCAST.STABLE": 72}


def test_wire_priced_beats_moved_no_delivery_count():
    """What licensed the keep-alive re-pin: a cost-model change, so every
    message kind is delivered as often as before, beats included — and
    none of the 822 beats took a reception charge or reached a dispatcher.
    Every other arrival was dispatched, except the two PROPOSEs that reach
    the leader while it is down and are dropped there."""
    golden = GOLDEN["paxos-heartbeat-crash"]
    cluster, _, _, deliveries = run_scenario(
        golden["technique"], engine=golden["engine"], detector="heartbeat",
        crash_coordinator=True, traced=True)
    assert Counter(kind for _, _, _, kind in deliveries) == \
        HEARTBEAT_SCENARIO_DELIVERIES
    dispatched = sum(cluster.gcs.dispatcher(name).dispatched_count
                     for name in cluster.server_names())
    assert dispatched == len(deliveries) - \
        HEARTBEAT_SCENARIO_DELIVERIES["fd.heartbeat"] - 2


def test_batched_background_writes_moved_no_crash_free_delivery_count():
    """What licensed the batched-write re-pin on Multi-Paxos: with no
    crash to cut the ballot, a change to what a background write costs
    delivers every message kind as often as before."""
    cluster, _, _, deliveries = run_scenario(
        "group-safe", engine="multi-paxos", detector="heartbeat",
        traced=True)
    assert Counter(kind for _, _, _, kind in deliveries) == \
        CRASH_FREE_PAXOS_DELIVERIES
    dispatched = sum(cluster.gcs.dispatcher(name).dispatched_count
                     for name in cluster.server_names())
    assert dispatched == len(deliveries) - \
        CRASH_FREE_PAXOS_DELIVERIES["fd.heartbeat"]


# ---------------------------------------------------------------- engine grid
#: Four safety configurations of the failure matrix, including the 2-safe
#: variant with a non-zero delivery-log cost.
GRID_CONFIGS = (
    ("group-safe", 0.0),
    ("group-1-safe", 0.0),
    ("2-safe", 0.0),
    ("2-safe", 0.05),
)


def audit_commit_integrity(cluster, results, audited_servers):
    """Committed responses must be recorded once, on every audited server."""
    committed = [entry.value.txn_id for entry in results
                 if entry.triggered and entry.value.committed]
    # No duplicated commits: one response per transaction.
    assert len(committed) == len(set(committed))
    findings = audit_writes(cluster, map(ConfirmedWrite, committed),
                            caught_up=audited_servers)
    assert findings == [], [str(finding) for finding in findings]
    return committed


@pytest.mark.parametrize("engine", ("fixed-sequencer", "multi-paxos"))
@pytest.mark.parametrize("technique,log_time", GRID_CONFIGS)
def test_engine_grid_preserves_commit_integrity(technique, log_time, engine):
    cluster, results, _, _ = run_scenario(technique, engine=engine,
                                       log_time=log_time)
    assert all(entry.triggered for entry in results)
    committed = audit_commit_integrity(cluster, results,
                                       cluster.server_names())
    assert committed, "grid cell committed nothing"


@pytest.mark.parametrize("technique", ("group-safe", "group-1-safe",
                                       "2-safe"))
def test_paxos_survives_a_leader_crash_without_loss(technique):
    # s1 is both the initial Paxos leader (lowest live member) and the
    # technique's delegate; crashing and recovering it mid-run must lose
    # and duplicate nothing.  The integrity audit covers the servers that
    # never crashed: a checkpoint-restored replica may legitimately miss
    # registry entries for transactions that were mid-commit at snapshot
    # time (the techniques' documented recovery semantics, independent of
    # the ordering engine).
    cluster, results, _, _ = run_scenario(technique, engine="multi-paxos",
                                       crash_coordinator=True)
    assert all(entry.triggered for entry in results), \
        "a submitted transaction never got a response"
    never_crashed = [name for name in cluster.up_servers() if name != "s1"]
    audit_commit_integrity(cluster, results, never_crashed)
