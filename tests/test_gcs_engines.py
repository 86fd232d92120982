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
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.workload import SimulationParameters


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
GOLDEN = {
    "group-safe": dict(
        technique="group-safe", crash=False, log_time=0.0,
        digest="cae9eaf8718e10a9f789f9a9fcd83bae2371d8dd"
               "087de661838604f3c338bace",
        model="0cd113d7bfad220c66651cd34168b2ff8d74e2be"
              "eb1444b8573d38b8b95d6621",
        stats=(15, 24, 240, 240, 2055)),
    "group-1-safe": dict(
        technique="group-1-safe", crash=False, log_time=0.0,
        digest="1d6ade55190137dcb78696439465668ddbbdbfb2"
               "26cff0e951e66b87be9e513b",
        model="fe5a1d78c48c362f90bfcdba78b92215b5f9da6d"
              "cd3c8163bc40f6317fc38bc9",
        stats=(17, 24, 240, 240, 2354)),
    "2-safe-logged": dict(
        technique="2-safe", crash=False, log_time=0.05,
        digest="5c60467120fd7e72bf4509a472faea864670c97c"
               "ea8ab9995e4e00fe071ce033",
        model="e6f74aaeee5998d14613b6a00c0129d278d5b1b5"
              "a5a7117426c263761c2dc604",
        stats=(16, 24, 240, 240, 2418)),
    "group-safe-crash": dict(
        technique="group-safe", crash=True, log_time=0.0,
        digest="ad917d721ddcabfa3da2cc82716cd87ec331a93a"
               "cb3fb501331b14343fe421ef",
        model="c95664072083102786cc0d086d494c480b2d5be9"
              "b563c8a8b96880da541052f3",
        stats=(15, 24, 236, 236, 1995)),
    "2-safe-crash": dict(
        technique="2-safe", crash=True, log_time=0.05,
        digest="7126be5b64628c14a6421eeb3374bc0097005341"
               "ee499d4ae16049a2fc9aa7ad",
        model="025ea3e25f434f6c3fb331fcc87aa29bfac7ce4f"
              "1133abc01b9591eacd57817b",
        stats=(15, 24, 246, 246, 2463)),
    # The one scenario on a heartbeat code path (the five above run the
    # perfect detector): Multi-Paxos, s1 — the leader — crashed and
    # recovered, so beats stop, a suspicion and a restore are swept, and the
    # recovered member beats again at its own phase.  Re-pinned alone, once
    # more (old → new in CHANGES.md), when a beat became a NIC-level
    # keep-alive priced on the wire and not on a CPU: no reception charge
    # means less CPU contention, so delivery instants moved; the first four
    # stats and the per-kind delivery counts (the test below) did not.
    "paxos-heartbeat-crash": dict(
        technique="group-safe", engine="multi-paxos", detector="heartbeat",
        crash=True, log_time=0.0,
        digest="7348ca44752a98aec6cb08f26b05ca9336773a57"
               "043a1c37b85b2d12c0ac0924",
        model="f72729bbe405ed2ad4ac355bc6b0d2bfaaefb4d9"
              "73dc18260fbf55a2fccc529d",
        stats=(15, 24, 1252, 1226, 3042)),
}

#: LAN deliveries per kind of the ``paxos-heartbeat-crash`` scenario, the
#: same with beats received on a CPU (the parent of the keep-alive change)
#: and on the wire.
HEARTBEAT_SCENARIO_DELIVERIES = {
    "ABCAST.JOIN": 3, "ABCAST.JOIN_REPLY": 2, "PAXOS.ACCEPT": 110,
    "PAXOS.ACCEPTED": 110, "PAXOS.LEARN": 154, "PAXOS.NACK": 2,
    "PAXOS.PREPARE": 11, "PAXOS.PROMISE": 9, "PAXOS.PROPOSE": 23,
    "fd.heartbeat": 822}


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
    none of the 822 beats took a reception charge or reached a dispatcher."""
    golden = GOLDEN["paxos-heartbeat-crash"]
    cluster, _, _, deliveries = run_scenario(
        golden["technique"], engine=golden["engine"], detector="heartbeat",
        crash_coordinator=True, traced=True)
    assert Counter(kind for _, _, _, kind in deliveries) == \
        HEARTBEAT_SCENARIO_DELIVERIES
    dispatched = sum(cluster.gcs.dispatcher(name).dispatched_count
                     for name in cluster.server_names())
    assert dispatched == len(deliveries) - \
        HEARTBEAT_SCENARIO_DELIVERIES["fd.heartbeat"]


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
