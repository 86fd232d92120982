"""Tests of end-to-end atomic broadcast (delivery logging, ack, replay)."""

from __future__ import annotations

import pytest

from repro.gcs import GroupCommunicationSystem
from repro.network import Lan, Node
from repro.obs.tracer import Observability
from repro.sim import Simulator
from tests.reference_broadcast import broadcast_trace


def build_group(member_count=3, seed=5, **kwargs):
    sim = Simulator(seed=seed)
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, member_count + 1)]
    gcs = GroupCommunicationSystem(sim, lan, end_to_end=True, **kwargs)
    gcs.start()
    return sim, lan, nodes, gcs


def test_delivery_is_logged_on_stable_storage():
    sim, lan, nodes, gcs = build_group()
    gcs.endpoint("s1").broadcast("payload")
    sim.run(until=20.0)
    for name in ("s1", "s2", "s3"):
        log = gcs.endpoint(name).journal
        assert len(log) == 1
        assert log.unacknowledged()[0].payload == "payload"


def test_acknowledge_marks_successful_delivery():
    sim, lan, nodes, gcs = build_group()
    obs = Observability(sim)
    endpoint = gcs.endpoint("s2")

    def consumer():
        delivery = yield endpoint.deliveries.get()
        endpoint.acknowledge(delivery)

    nodes[1].spawn(consumer())
    gcs.endpoint("s1").broadcast("ack-me")
    sim.run(until=20.0)
    assert endpoint.journal.unacknowledged() == []
    assert endpoint.ack_count == 1
    assert broadcast_trace(obs).check_end_to_end(["s2"])


def test_unacknowledged_messages_are_replayed_after_crash():
    sim, lan, nodes, gcs = build_group()
    # s3 never processes (no consumer): delivery is logged but not acked.
    gcs.endpoint("s1").broadcast("must-survive")
    sim.run(until=20.0)
    nodes[2].crash()
    sim.run(until=30.0)
    nodes[2].recover()

    def recovery():
        replayed = yield from gcs.endpoint("s3").recover(rejoin_timeout=10.0)
        return replayed

    process = nodes[2].spawn(recovery())
    sim.run(until=100.0)
    assert process.value == 1
    replays = []

    def consumer():
        delivery = yield gcs.endpoint("s3").deliveries.get()
        replays.append((delivery.payload, delivery.replayed))
        gcs.endpoint("s3").acknowledge(delivery)

    nodes[2].spawn(consumer())
    sim.run(until=150.0)
    assert replays == [("must-survive", True)]
    assert gcs.endpoint("s3").journal.unacknowledged() == []


def test_acknowledged_messages_are_not_replayed():
    sim, lan, nodes, gcs = build_group()
    endpoint = gcs.endpoint("s3")

    def consumer():
        delivery = yield endpoint.deliveries.get()
        endpoint.acknowledge(delivery)

    nodes[2].spawn(consumer())
    gcs.endpoint("s1").broadcast("done")
    sim.run(until=20.0)
    nodes[2].crash()
    sim.run(until=25.0)
    nodes[2].recover()

    def recovery():
        replayed = yield from endpoint.recover(rejoin_timeout=5.0)
        return replayed

    process = nodes[2].spawn(recovery())
    sim.run(until=100.0)
    assert process.value == 0
    assert len(endpoint.deliveries) == 0


def test_whole_group_crash_recovery_replays_everywhere():
    """The Fig. 7 situation at the broadcast level: everyone crashes."""
    sim, lan, nodes, gcs = build_group()
    gcs.endpoint("s1").broadcast("all-crash")
    sim.run(until=20.0)
    for node in nodes:
        node.crash()
    sim.run(until=30.0)
    replay_counts = {}
    for node in nodes[1:]:        # only s2 and s3 come back
        node.recover()

        def recovery(name=node.name):
            replayed = yield from gcs.endpoint(name).recover(rejoin_timeout=10.0)
            replay_counts[name] = replayed

        node.spawn(recovery())
        sim.run(until=sim.now + 50.0)
    assert replay_counts == {"s2": 1, "s3": 1}


def test_sync_catch_up_fetches_missed_messages_from_peers():
    sim, lan, nodes, gcs = build_group()
    acked = {name: [] for name in ("s1", "s2", "s3")}

    def consumer(name):
        endpoint = gcs.endpoint(name)
        while True:
            delivery = yield endpoint.deliveries.get()
            acked[name].append(delivery.payload)
            endpoint.acknowledge(delivery)

    for node in nodes:
        node.spawn(consumer(node.name))
    gcs.endpoint("s1").broadcast("first")
    sim.run(until=20.0)
    nodes[2].crash()
    sim.run(until=25.0)
    # While s3 is down, the group keeps committing.
    gcs.endpoint("s1").broadcast("second")
    sim.run(until=60.0)
    nodes[2].recover()

    def recovery():
        yield from gcs.endpoint("s3").recover(rejoin_timeout=20.0)

    nodes[2].spawn(recovery())
    sim.run(until=sim.now + 100.0)
    nodes[2].spawn(consumer("s3"))
    sim.run(until=sim.now + 100.0)
    assert acked["s3"] == ["first", "second"]


def test_delivery_log_time_charges_the_disk():
    sim, lan, nodes, gcs = build_group(delivery_log_time=8.0)
    gcs.endpoint("s1").broadcast("expensive")
    sim.run(until=60.0)
    assert nodes[0].disk.busy_time >= 8.0
    assert nodes[1].disk.busy_time >= 8.0


def test_duplicate_ack_is_harmless():
    sim, lan, nodes, gcs = build_group()
    endpoint = gcs.endpoint("s1")
    deliveries = []

    def consumer():
        delivery = yield endpoint.deliveries.get()
        deliveries.append(delivery)
        endpoint.acknowledge(delivery)
        endpoint.acknowledge(delivery)

    nodes[0].spawn(consumer())
    endpoint.broadcast("twice-acked")
    sim.run(until=20.0)
    assert [entry.acknowledged for entry in endpoint.journal.entries()
            if entry.broadcast_id == deliveries[0].broadcast_id] == [True]


class _UnscannableList(list):
    """A record list that fails any scan (appends still work)."""

    def __iter__(self):
        raise AssertionError("the history was scanned")


def test_acknowledge_does_not_scan_the_delivery_history():
    # Regression: every ack used to scan the whole delivery history, which
    # made a long 2-safe run quadratic in its number of commits.  An ack
    # appends one instant to the tracer and reads nothing already there.
    sim, lan, nodes, gcs = build_group()
    obs = Observability(sim)
    obs.instants = _UnscannableList()
    endpoint = gcs.endpoint("s2")
    acked = []

    def consumer():
        while True:
            delivery = yield endpoint.deliveries.get()
            endpoint.acknowledge(delivery)
            acked.append(delivery.broadcast_id)

    nodes[1].spawn(consumer())
    for payload in ("first", "second"):
        gcs.endpoint("s1").broadcast(payload)
    sim.run(until=40.0)
    assert len(acked) == 2
    obs.instants = list(list.__iter__(obs.instants))
    mine = [record for record in broadcast_trace(obs).deliveries
            if record.member == "s2"]
    assert [record.acknowledged for record in mine] == [True, True]
    assert [record.acknowledged_at for record in mine] == \
        [entry.acknowledged_at for entry in endpoint.journal.entries()]
