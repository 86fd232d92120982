"""Tests of the broadcast-trace checks, failure detector and view membership."""

from __future__ import annotations

import pytest

from repro.gcs import FailureDetector, GroupMembership
from repro.network import Lan, Node
from repro.sim import Simulator
from tests.reference_broadcast import BroadcastTrace, DeliveryRecord


def test_broadcast_trace_checks():
    trace = BroadcastTrace()
    trace.record_send("m1")
    trace.record_send("m2")
    for member in ("a", "b"):
        trace.record_delivery(DeliveryRecord(member, "m1", 1, 1.0))
        trace.record_delivery(DeliveryRecord(member, "m2", 2, 2.0))
    assert trace.check_validity()
    assert trace.check_integrity()
    assert trace.check_total_order()
    assert trace.check_uniform_agreement(["a", "b"])
    # "c" never delivered anything: agreement fails if it is declared non-red.
    assert not trace.check_uniform_agreement(["a", "b", "c"])


def test_broadcast_trace_detects_order_and_integrity_violations():
    trace = BroadcastTrace()
    trace.record_send("m1")
    trace.record_send("m2")
    trace.record_delivery(DeliveryRecord("a", "m1", 1, 1.0))
    trace.record_delivery(DeliveryRecord("a", "m2", 2, 2.0))
    trace.record_delivery(DeliveryRecord("b", "m2", 1, 1.0))
    trace.record_delivery(DeliveryRecord("b", "m1", 2, 2.0))
    assert not trace.check_total_order()
    trace.record_delivery(DeliveryRecord("a", "m1", 3, 3.0))
    assert not trace.check_integrity()
    trace.record_delivery(DeliveryRecord("a", "rogue", 4, 4.0))
    assert not trace.check_validity()


def test_end_to_end_check_requires_acknowledgements():
    trace = BroadcastTrace()
    trace.record_send("m1")
    trace.record_delivery(DeliveryRecord("a", "m1", 1, 1.0, acknowledged=True))
    trace.record_delivery(DeliveryRecord("b", "m1", 1, 1.0))
    assert trace.check_end_to_end(["a"])
    assert not trace.check_end_to_end(["a", "b"])


def test_failure_detector_announces_with_delay():
    sim = Simulator()
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 4)]
    detector = FailureDetector(sim, lan, detection_delay=2.0)
    events = []
    detector.subscribe(lambda member, kind: events.append((member, kind, sim.now)))
    nodes[1].crash()
    sim.run()
    assert events == [("s2", "suspect", 2.0)]
    assert detector.is_suspected("s2")
    assert not detector.is_suspected("s1") and not detector.is_suspected("s3")
    nodes[1].recover()
    sim.run()
    assert events[-1] == ("s2", "restore", pytest.approx(sim.now))
    assert not detector.is_suspected("s2")


def test_failure_detector_ignores_bounced_nodes():
    sim = Simulator()
    lan = Lan(sim)
    node = lan.attach(Node(sim, "s1"))
    detector = FailureDetector(sim, lan, detection_delay=5.0)
    events = []
    detector.subscribe(lambda member, kind: events.append(kind))
    node.crash()
    node.recover()      # recovers before the detection delay elapses
    sim.run()
    assert "suspect" not in events


def test_membership_views_and_quorum():
    sim = Simulator()
    membership = GroupMembership(sim, ["s1", "s2", "s3"])
    assert membership.view.view_id == 0
    assert membership.view.members == ("s1", "s2", "s3")
    assert membership.quorum_size == 2
    assert membership.has_quorum and not membership.group_failed
    assert membership.view.primary == "s1"

    membership.remove_member("s1")
    assert membership.view.view_id == 1
    assert membership.view.primary == "s2"
    membership.remove_member("s3")
    assert membership.group_failed

    membership.add_member("s1")
    # Order follows the static membership, so s1 is primary again.
    assert membership.view.primary == "s1"
    assert membership.has_quorum


def test_membership_noop_changes_and_validation():
    sim = Simulator()
    membership = GroupMembership(sim, ["s1", "s2", "s3"])
    assert membership.remove_member("unknown") is None
    assert membership.add_member("s1") is None
    with pytest.raises(ValueError):
        membership.add_member("stranger")
    with pytest.raises(ValueError):
        GroupMembership(sim, [])


def test_membership_listener_receives_views():
    sim = Simulator()
    membership = GroupMembership(sim, ["s1", "s2"])
    views = []
    membership.subscribe(lambda view: views.append(view.members))
    membership.remove_member("s2")
    assert views == [("s1",)]


def test_membership_driven_by_failure_detector():
    sim = Simulator()
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 4)]
    detector = FailureDetector(sim, lan, detection_delay=1.0)
    membership = GroupMembership(sim, [n.name for n in nodes],
                                 failure_detector=detector)
    nodes[0].crash()
    sim.run()
    assert membership.view.members == ("s2", "s3")
    nodes[0].recover()
    sim.run()
    assert membership.view.members == ("s1", "s2", "s3")
