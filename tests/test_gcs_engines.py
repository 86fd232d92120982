"""The pluggable broadcast-engine stack: registry semantics, golden-trace
digests proving the fixed sequencer reproduces the seed bit-for-bit, and the
technique x engine equivalence grid over Multi-Paxos."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.audit import ConfirmedWrite, audit_writes
from repro.gcs.engines import (DEFAULT_ENGINE, BroadcastEngineSpec,
                               engine_names, register_engine, resolve_engine)
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


def test_register_and_resolve_a_custom_engine():
    from repro.gcs import engines
    spec = BroadcastEngineSpec(name="token-ring",
                               factory=lambda **kwargs: None,
                               description="test double")
    register_engine("token-ring", spec)
    try:
        assert resolve_engine("token-ring") is spec
        assert "token-ring" in engine_names()
    finally:
        engines._REGISTRY.pop("token-ring", None)


def test_register_engine_rejects_empty_names():
    with pytest.raises(ValueError):
        register_engine("", BroadcastEngineSpec(
            name="", factory=lambda **kwargs: None))


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
                 crash_coordinator=False, log_time=0.0, traced=False):
    """One 24-transaction closed scenario, optionally crashing s1.

    Returns ``(cluster, results, trace, deliveries)`` — the same driver the
    golden digests were captured with, byte for byte.  ``traced`` records
    the kernel's event trace and, from outside the program, every LAN
    delivery (both ``None`` otherwise).
    """
    params = SimulationParameters.small(server_count=3, item_count=120) \
        .with_overrides(broadcast_engine=engine)
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
# ``model_digest``); it was captured on the kernel whose ``digest`` values
# still equalled the seed's (pre-decomposition, fused sequencer+membership)
# gcs stack, so it and the first four stats are the seed's behaviour: no
# refactor or kernel optimisation may move them.  ``digest`` and the
# scheduled-event count pin the kernel's private event list; they were
# re-pinned once, when a resource charge became one event instead of two
# (CHANGES.md, PR 17).
GOLDEN = {
    "group-safe": dict(
        technique="group-safe", crash=False, log_time=0.0,
        digest="074379d5363fb827788629cec8a1eb4636f6f8bd"
               "ad7b8c66446dec09db41d0de",
        model="80174df81fd0483e58fefa68cc2d0ef0d5e10bbf"
              "461a48a5d036c917fc7f4c61",
        stats=(15, 24, 312, 312, 3307)),
    "group-1-safe": dict(
        technique="group-1-safe", crash=False, log_time=0.0,
        digest="c6011eba69f9dc876c80977053c770e8cc6c7176"
               "490ae5f6519b9d736a0375c4",
        model="9070db56a1cfd852eadf8216cc4b5a88e1911437"
              "15e525d38086508f082008b3",
        stats=(17, 24, 312, 312, 3611)),
    "2-safe-logged": dict(
        technique="2-safe", crash=False, log_time=0.05,
        digest="993b261b3a50c860571646c9a73d693c81d43403"
               "71dcc41a9713c95e00cc1b05",
        model="d02d02f4ca0fb953c46bbca839f7b67ef3d8bd42"
              "75d2c04827ccdfb190789bb5",
        stats=(17, 24, 312, 312, 3753)),
    "group-safe-crash": dict(
        technique="group-safe", crash=True, log_time=0.0,
        digest="581c365980c42e7c2d16fdb5bcc5932a13a97f7f"
               "3db334346902be1d7887de2d",
        model="9f9562985005653bd181a9f0635e2bc5099fb1d7"
              "7a7007ffed34c2093abb3a4f",
        stats=(15, 24, 296, 296, 3159)),
    "2-safe-crash": dict(
        technique="2-safe", crash=True, log_time=0.05,
        digest="0e6b21626cc0220b32b2fad921dcf4e80edb5b2f"
               "ca90460a0ba05f27a6961d04",
        model="053af4bb2d6a0707de6a0903862ed9f749db99a6"
              "90e43d00dfb05ddb637b09b9",
        stats=(15, 24, 309, 309, 3690)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_sequencer_reproduces_the_seed_traces(name):
    golden = GOLDEN[name]
    cluster, results, trace, deliveries = run_scenario(
        golden["technique"], crash_coordinator=golden["crash"],
        log_time=golden["log_time"], traced=True)
    assert scenario_stats(cluster, results) == golden["stats"]
    assert model_digest(deliveries, results) == golden["model"]
    assert trace_digest(trace) == golden["digest"]


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
