"""Tests of the LinkFault model and per-cause LAN drop accounting.

Pins the fault taxonomy (partition / isolate / asymmetric / lossy / slow),
the scheduled install/remove machinery that gives faults durations, the
directional semantics of ``Lan.block`` / ``unblock``, and the
``dropped_by_cause`` split the metrics collectors surface.
"""

from __future__ import annotations

import pytest

from repro.network import Lan, LinkFault, Message, Node
from repro.network.faults import FaultTables
from repro.sim import Simulator


def make_lan(sim, count=3, **kwargs):
    lan = Lan(sim, **kwargs)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, count + 1)]
    return lan, nodes


def delivered(lan, sender, destination, kind="X"):
    before = lan.delivered_count
    lan.send(Message(sender=sender, destination=destination, kind=kind))
    lan.sim.run()
    return lan.delivered_count - before


# -- LinkFault construction and validation --------------------------------------------

def test_fault_requires_name_and_valid_probabilities():
    with pytest.raises(ValueError):
        LinkFault(name="")
    with pytest.raises(ValueError):
        LinkFault.lossy("bad", ["a"], ["b"], probability=1.5)
    with pytest.raises(ValueError):
        LinkFault.slow("bad", ["a"], ["b"], factor=0.0)


def test_partition_constructor_blocks_both_directions():
    fault = LinkFault.partition("split", ["s1", "s2"], ["s3"])
    assert set(fault.blocked) == {("s1", "s3"), ("s3", "s1"),
                                  ("s2", "s3"), ("s3", "s2")}


def test_isolate_excludes_the_node_from_its_own_peer_set():
    fault = LinkFault.isolate("iso", "s1", ["s1", "s2", "s3"])
    assert set(fault.blocked) == {("s1", "s2"), ("s2", "s1"),
                                  ("s1", "s3"), ("s3", "s1")}


def test_fault_tables_compose_loss_and_latency():
    tables = FaultTables.combine([
        LinkFault.lossy("l1", ["a"], ["b"], 0.5),
        LinkFault.lossy("l2", ["a"], ["b"], 0.5),
        LinkFault.slow("w1", ["a"], ["b"], 2.0),
        LinkFault.slow("w2", ["a"], ["b"], 3.0),
    ])
    assert tables.loss[("a", "b")] == pytest.approx(0.75)
    assert tables.latency[("a", "b")] == pytest.approx(6.0)


# -- directional manual blocking ------------------------------------------------------

def test_block_is_directional_and_unblock_restores_it():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.block("s1", "s2")
    assert delivered(lan, "s1", "s2") == 0       # blocked direction drops
    assert delivered(lan, "s2", "s1") == 1       # reverse direction flows
    lan.unblock("s1", "s2")
    assert delivered(lan, "s1", "s2") == 1
    assert lan.dropped_by_cause == {"partitioned": 1}


def test_symmetric_blocking_takes_both_directions():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.block("s1", "s2")
    lan.block("s2", "s1")
    assert delivered(lan, "s1", "s2") == 0
    assert delivered(lan, "s2", "s1") == 0
    lan.unblock("s1", "s2")
    assert delivered(lan, "s1", "s2") == 1
    assert delivered(lan, "s2", "s1") == 0       # other direction still pinned


def test_heal_clears_manual_blocks_but_not_faults():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.block("s1", "s2")
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s3"]))
    lan.heal()
    assert not lan.is_blocked("s1", "s2")
    assert lan.is_blocked("s1", "s3")
    lan.remove_fault("split")
    assert not lan.is_blocked("s1", "s3")


# -- installed faults -----------------------------------------------------------------

def test_partition_fault_drops_with_partitioned_cause():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s2"]))
    assert delivered(lan, "s1", "s2") == 0
    assert delivered(lan, "s2", "s1") == 0
    assert delivered(lan, "s1", "s3") == 1
    assert lan.dropped_by_cause == {"partitioned": 2}


def test_asymmetric_fault_blocks_only_listed_directions():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.install_fault(LinkFault.asymmetric("oneway", [("s1", "s2")]))
    assert delivered(lan, "s1", "s2") == 0
    assert delivered(lan, "s2", "s1") == 1


def test_partition_arriving_mid_flight_drops_the_message():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s2"]))
    sim.run()
    assert lan.delivered_count == 0
    assert lan.dropped_by_cause == {"partitioned": 1}


def test_lossy_fault_drops_deterministically_per_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        lan, _nodes = make_lan(sim)
        lan.install_fault(LinkFault.lossy("flaky", ["s1"], ["s2"], 0.5))
        for _ in range(200):
            lan.send(Message(sender="s1", destination="s2", kind="X"))
        sim.run()
        return lan.delivered_count, lan.dropped_by_cause.get("lossy-link", 0)

    first = run(7)
    assert first == run(7)                  # deterministic per seed
    assert first != run(8)                  # and seed-sensitive
    delivered_n, dropped_n = first
    assert delivered_n + dropped_n == 200
    assert 60 <= dropped_n <= 140           # roughly the configured rate


def test_lossy_fault_does_not_affect_unlisted_pairs():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.install_fault(LinkFault.lossy("flaky", ["s1"], ["s2"], 1.0))
    assert delivered(lan, "s1", "s2") == 0
    assert delivered(lan, "s1", "s3") == 1
    assert lan.dropped_by_cause == {"lossy-link": 1}


def test_slow_fault_multiplies_latency_for_listed_pairs_only():
    sim = Simulator()
    lan, (a, b, c) = make_lan(sim)
    lan.install_fault(LinkFault.slow("congested", ["s1"], ["s2"], 10.0))
    arrivals = {}

    def consumer(node):
        message = yield node.inbox.get()
        arrivals[node.name] = sim.now

    b.spawn(consumer(b))
    c.spawn(consumer(c))
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    lan.send(Message(sender="s1", destination="s3", kind="X"))
    sim.run()
    assert arrivals["s2"] == pytest.approx(0.7)
    assert arrivals["s3"] == pytest.approx(0.07)


def test_install_replaces_fault_of_same_name_and_remove_returns_it():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s2"]))
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s3"]))
    assert not lan.is_blocked("s1", "s2")
    assert lan.is_blocked("s1", "s3")
    assert lan.active_faults() == ["split"]
    removed = lan.remove_fault("split")
    assert removed is not None and removed.name == "split"
    assert lan.remove_fault("split") is None


def test_scheduled_fault_has_a_duration():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    lan.schedule_fault(LinkFault.partition("window", ["s1"], ["s2"]),
                       at=10.0, until=20.0)
    with pytest.raises(ValueError):
        lan.schedule_fault(LinkFault.partition("bad", ["s1"], ["s2"]),
                           at=10.0, until=10.0)

    sent = []

    def sender():
        for when in (5.0, 15.0, 25.0):
            yield sim.timeout(when - sim.now)
            lan.send(Message(sender="s1", destination="s2", kind="X",
                             payload=when))
            sent.append(when)

    received = []

    def consumer():
        while True:
            message = yield b.inbox.get()
            received.append(message.payload)

    sim.spawn(sender())
    b.spawn(consumer())
    sim.run(until=100.0)
    assert sent == [5.0, 15.0, 25.0]
    assert received == [5.0, 25.0]          # only the mid-window send is lost
    assert lan.dropped_by_cause == {"partitioned": 1}


# -- per-cause accounting -------------------------------------------------------------

def test_dropped_by_cause_distinguishes_all_causes():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    lan.send(Message(sender="s1", destination="nowhere", kind="X"))
    b.crash()
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    lan.block("s1", "s3")
    lan.send(Message(sender="s1", destination="s3", kind="X"))
    sim.run()
    assert lan.dropped_by_cause == {"destination-unknown": 1,
                                    "destination-crashed": 1,
                                    "partitioned": 1}
    assert lan.dropped_count == 3


def test_no_fault_run_creates_no_loss_stream():
    sim = Simulator()
    lan, _nodes = make_lan(sim)
    assert lan._loss_stream is None
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s2"]))
    assert lan._loss_stream is None          # blocking needs no randomness
    lan.install_fault(LinkFault.lossy("flaky", ["s1"], ["s2"], 0.1))
    assert lan._loss_stream is not None


# -- counter surfacing ----------------------------------------------------------------

def test_netsplit_surfaces_in_drop_causes_and_suspicions():
    """The LAN splits its drops by cause and each group's failure detector
    counts its announcements — a netsplit shows up as ``partitioned`` drops
    plus one suspect/restore pair on the affected shard only."""
    from repro.partition.cluster import PartitionedCluster
    from repro.workload import SimulationParameters

    params = SimulationParameters.small(server_count=3, item_count=120) \
        .with_overrides(partition_count=2,
                        failure_detector_mode="heartbeat",
                        heartbeat_period=10.0, heartbeat_timeout=60.0)
    cluster = PartitionedCluster("group-1-safe", params=params, seed=3,
                                 strategy="range")
    cluster.start()
    cluster.lan.schedule_fault(
        LinkFault.partition("split", ("p0.s3",), ("p0.s1", "p0.s2")),
        at=100.0, until=400.0)
    cluster.run(until=600.0)

    assert cluster.lan.dropped_by_cause.get("partitioned", 0) > 0
    affected, untouched = (group.gcs.failure_detector
                           for group in cluster.groups)
    assert affected.suspicion_count >= 1
    assert affected.restore_count >= 1       # healed after the window
    assert untouched.suspicion_count == 0
