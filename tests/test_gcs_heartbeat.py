"""Tests of the heartbeat/timeout failure detector.

Pins the quorum-freshness rule (a member is suspected once fewer than a
majority has heard from it within the timeout), its behaviour under crashes,
netsplits and heals, the detector's blindness when the timeout outlasts the
fault, and the mode selection plumbed through the GCS composition root.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs import GroupCommunicationSystem
from repro.gcs.failure_detector import (HEARTBEAT_KIND, FailureDetector,
                                        HeartbeatFailureDetector,
                                        build_failure_detector)
from repro.network import Dispatcher, Lan, LinkFault, Node
from repro.network.message import next_message_id
from repro.obs import Observability
from repro.sim import Simulator
from tests.reference_heartbeat import ReferenceHeartbeatDetector


def build_detector(member_count=3, period=10.0, timeout=50.0, seed=7):
    # No dispatchers: each watched node consumes beats on arrival.
    sim = Simulator(seed=seed)
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, member_count + 1)]
    detector = HeartbeatFailureDetector(sim, lan, nodes,
                                        period=period, timeout=timeout)
    return sim, lan, nodes, detector


def test_parameter_validation():
    sim = Simulator()
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, "s1"))]
    with pytest.raises(ValueError):
        HeartbeatFailureDetector(sim, lan, nodes, period=0.0)
    with pytest.raises(ValueError):
        HeartbeatFailureDetector(sim, lan, nodes, period=10.0, timeout=5.0)


def test_healthy_group_suspects_nobody():
    sim, lan, nodes, detector = build_detector()
    sim.run(until=500.0)
    assert not any(detector.is_suspected(node.name) for node in nodes)
    assert detector.suspicion_count == 0


def test_crashed_member_is_suspected_then_restored_on_recovery():
    sim, lan, (a, b, c), detector = build_detector()
    events = []
    detector.subscribe(lambda member, kind: events.append((sim.now, member, kind)))
    sim.call_at(100.0, c.crash)
    sim.call_at(300.0, c.recover)
    sim.run(until=500.0)
    assert not detector.is_suspected("s3")
    kinds = [(member, kind) for _, member, kind in events]
    assert kinds == [("s3", "suspect"), ("s3", "restore")]
    suspect_time = events[0][0]
    restore_time = events[1][0]
    # Suspicion needs a full timeout of silence plus at most one sweep.
    assert 100.0 + detector.timeout <= suspect_time <= 100.0 + detector.timeout + 2 * detector.period
    assert 300.0 <= restore_time <= 300.0 + 2 * detector.period
    assert detector.suspicion_count == 1
    assert detector.restore_count == 1


def test_netsplit_suspects_the_minority_not_the_majority():
    sim, lan, nodes, detector = build_detector()
    lan.schedule_fault(LinkFault.isolate("iso", "s3", ["s1", "s2", "s3"]),
                       at=100.0)
    sim.run(until=300.0)
    # The majority side's view: the cut-off member is suspected exactly like
    # a crash, the majority members keep vouching for each other.
    assert detector.is_suspected("s3")
    assert not detector.is_suspected("s1")
    assert not detector.is_suspected("s2")


def test_healed_netsplit_restores_the_minority():
    sim, lan, nodes, detector = build_detector()
    lan.schedule_fault(LinkFault.partition("split", ["s1", "s2"], ["s3"]),
                       at=100.0, until=300.0)
    sim.run(until=500.0)
    assert not detector.is_suspected("s3")
    assert detector.suspicion_count == 1
    assert detector.restore_count == 1


def test_fault_shorter_than_timeout_is_invisible():
    sim, lan, nodes, detector = build_detector(period=10.0, timeout=200.0)
    lan.schedule_fault(LinkFault.partition("blip", ["s1", "s2"], ["s3"]),
                       at=100.0, until=250.0)
    sim.run(until=600.0)
    assert detector.suspicion_count == 0


def test_single_lossy_link_alone_suspects_nobody():
    sim, lan, nodes, detector = build_detector()
    # s2<->s3 drops half its traffic; s1 still hears both, and each member's
    # own beat counts, so every member keeps a fresh majority.
    lan.install_fault(LinkFault.lossy("flaky", ["s2"], ["s3"], 0.5))
    sim.run(until=1000.0)
    assert detector.suspicion_count == 0


def test_asymmetric_isolation_still_reaches_quorum_silence():
    sim, lan, nodes, detector = build_detector()
    # s3's outbound beats are dropped; its inbound links still work.  Nobody
    # but s3 itself hears s3, so s3 is suspected.
    lan.install_fault(LinkFault.asymmetric(
        "deaf", [("s3", "s1"), ("s3", "s2")]))
    sim.run(until=300.0)
    assert detector.is_suspected("s3")
    assert not detector.is_suspected("s1")


def test_a_healthy_period_is_one_tick_one_wire_one_sweep():
    """The event bill of heartbeating, per period of a healthy 3-member
    group: the tick, one wire event carrying all six beats, and the sweep —
    3 events.  A beat is priced on the wire only: it lands in the freshness
    map at wire arrival, and the node's running dispatcher never sees it, so
    no CPU is granted or busy for it (each beat used to take a reception
    charge, 9 events a period).  A beat has no envelope either: ten
    periods draw no message id (the probe's own draw is the one step)."""
    sim, lan, nodes, detector = build_detector()
    dispatchers = [Dispatcher(sim, node) for node in nodes]
    for dispatcher in dispatchers:
        dispatcher.start()
    sim.run(until=95.0)
    events = sim.scheduled_events
    delivered = lan.delivered_count
    message_id = next_message_id()
    sim.run(until=195.0)
    assert next_message_id() - message_id == 1
    assert sim.scheduled_events - events == 10 * (1 + 1 + 1)
    assert lan.delivered_count - delivered == 10 * 6
    assert detector._last_heard[("s2", "s1")] == 190.0 + lan.latency
    assert [dispatcher.dispatched_count for dispatcher in dispatchers] == \
        [0, 0, 0]
    assert [(node.cpu.granted_count, node.cpu.busy_time)
            for node in nodes] == [(0, 0.0)] * 3
    assert detector.suspicion_count == 0


def test_a_lone_member_beats_nobody():
    """A one-member group has no peer to beat: each period is its tick and
    its sweep, and nothing goes on the wire."""
    sim, lan, nodes, detector = build_detector(member_count=1)
    sim.run(until=95.0)
    events = sim.scheduled_events
    sim.run(until=195.0)
    assert sim.scheduled_events - events == 10 * (1 + 1)
    assert lan.sent_count == 0
    assert not detector.is_suspected("s1")


def test_dropped_beats_are_traced_like_dropped_messages():
    """A beat pays the message drop rules and leaves the same trace: one
    ``lan.drop`` instant per dropped beat, of kind ``fd.heartbeat``, with
    its cause — in flight to a node that crashes (at 100.07), in flight
    across a partition installed meanwhile (at 110.07), and sampled away
    on a lossy link at admission (at 120)."""
    sim, lan, (s1, s2, s3), detector = build_detector()
    obs = Observability(sim)
    sim.call_at(100.03, s3.crash)
    sim.call_at(105.0, s3.recover)              # beats again from 105 on
    lan.schedule_fault(LinkFault.partition("split", ["s1"], ["s2", "s3"]),
                       at=110.03, until=112.0)
    sim.call_at(112.0, lambda: lan.install_fault(
        LinkFault.lossy("lost", ["s1"], ["s2"], 1.0)))
    sim.run(until=121.0)
    drops = [(instant.at, instant.labels["reason"], instant.labels["sender"],
              instant.labels["destination"])
             for instant in obs.instants if instant.name == "lan.drop"]
    assert drops == [
        (100.07, "destination-crashed", "s1", "s3"),
        (100.07, "destination-crashed", "s2", "s3"),
        (110.07, "partitioned", "s1", "s2"),
        (110.07, "partitioned", "s1", "s3"),
        (110.07, "partitioned", "s2", "s1"),
        (120.0, "lossy-link", "s1", "s2"),
        (120.0, "lossy-link", "s2", "s1")]
    assert {instant.labels["kind"] for instant in obs.instants
            if instant.name == "lan.drop"} == {HEARTBEAT_KIND}
    assert lan.dropped_by_cause == dict(Counter(
        reason for _, reason, _, _ in drops))
    assert lan.dropped_count == len(drops)
    assert detector.suspicion_count == 0


# -- ticks versus the per-member beat processes --------------------------------------
class _FreshnessLog(dict):
    """A freshness map that records every write as (time, observer, member)."""

    def __init__(self, entries):
        super().__init__(entries)
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append((value, *key))
        super().__setitem__(key, value)


def _fault(name, nodes):
    kind, first, second = name.split(":")
    a, b = nodes[int(first)].name, nodes[int(second)].name
    if kind == "isolate":
        return LinkFault.isolate(name, a, [node.name for node in nodes])
    if kind == "deaf":
        return LinkFault.asymmetric(name, [(a, b)])
    if kind == "lossy":
        return LinkFault.lossy(name, [a], [b], 0.5)
    return LinkFault.slow(name, [a], [b], 3.0)


def drive_detector(detector_class, member_count, schedule):
    """``member_count`` nodes; ``schedule`` = [(ms, action)]: toggle a node
    (crash, or recover and restart its dispatcher), or toggle a named link
    fault."""
    sim = Simulator(seed=3)
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, member_count + 1)]
    detector = detector_class(sim, lan, nodes)
    freshness = detector._last_heard = _FreshnessLog(detector._last_heard)
    announcements = []
    detector.subscribe(lambda member, kind:
                       announcements.append((sim.now, member, kind)))
    dispatchers = [Dispatcher(sim, node) for node in nodes]
    for node, dispatcher in zip(nodes, dispatchers):
        if isinstance(detector, ReferenceHeartbeatDetector):
            detector.bind_dispatcher(node.name, dispatcher)
        dispatcher.start()

    def toggle(index):
        node = nodes[index % member_count]
        if node.is_up:
            node.crash()
        else:
            node.recover()
            dispatchers[index % member_count].start()

    def link(name):
        if name in lan.active_faults():
            lan.remove_fault(name)
        else:
            lan.install_fault(_fault(name, nodes))

    actions = {"toggle": toggle, "link": link}
    for when, (action, *args) in schedule:
        sim.call_at(when, partial(actions[action], *args))
    sim.run(until=400.0)
    return (freshness.writes, announcements, lan.sent_count,
            lan.delivered_count, lan.dropped_by_cause,
            [node.cpu.busy_time for node in nodes], sim.scheduled_events)


def at_reception(writes, charge):
    """``writes`` with each peer observation moved to the instant the
    reference's dispatcher records it: one reception charge after the wire
    arrival, behind the beats queued before it in the observer's inbox
    (one charge at a time, FIFO).  Sorted: beats queued at different
    observers complete in the server's order, not in arrival order."""
    served_until = {}
    moved = []
    for when, observer, member in writes:
        if observer != member:
            when = max(when, served_until.get(observer, when)) + charge
            served_until[observer] = when
        moved.append((when, observer, member))
    return sorted(moved)


#: A node's default CPU cost of a network operation (Table 4).
RECEPTION_CHARGE = 0.07

FAULT_NAMES = [f"{kind}:{a}:{b}" for kind in ("isolate", "deaf", "lossy", "slow")
               for a in range(3) for b in range(3) if a != b]
DETECTOR_ACTIONS = st.one_of(
    st.tuples(st.just("toggle"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("link"), st.sampled_from(FAULT_NAMES)))


@given(st.integers(min_value=3, max_value=5),
       st.lists(st.tuples(st.integers(min_value=1, max_value=380)
                          .map(float), DETECTOR_ACTIONS),
                unique_by=lambda entry: entry[0], max_size=14))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_ticks_match_the_per_member_beat_processes(member_count, schedule):
    """Same announcements at the same instants, and the same sends,
    deliveries and drops per cause, under crashes, recoveries and every
    link-fault kind — including actions on the very instants the members
    beat and the sweep runs.  The freshness writes are the same too, at the
    reception-charge offset: a keep-alive records its observation at wire
    arrival, the reference's dispatcher after the CPU charge it no longer
    pays."""
    (writes, announcements, sent, delivered, dropped,
     busy, events) = drive_detector(HeartbeatFailureDetector,
                                    member_count, schedule)
    (ref_writes, ref_announcements, ref_sent, ref_delivered, ref_dropped,
     _, ref_events) = drive_detector(ReferenceHeartbeatDetector,
                                     member_count, schedule)
    assert announcements == ref_announcements
    assert (sent, delivered, dropped) == \
        (ref_sent, ref_delivered, ref_dropped)
    assert at_reception(writes, RECEPTION_CHARGE) == sorted(ref_writes)
    assert busy == [0.0] * member_count
    assert events < ref_events


def test_build_failure_detector_selects_modes():
    sim = Simulator()
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 4)]
    perfect = build_failure_detector("perfect", sim, lan, nodes,
                                     detection_delay=2.0)
    assert isinstance(perfect, FailureDetector)
    heartbeat = build_failure_detector("heartbeat", sim, lan, nodes,
                                       heartbeat_period=5.0,
                                       heartbeat_timeout=25.0)
    assert isinstance(heartbeat, HeartbeatFailureDetector)
    assert heartbeat.period == 5.0 and heartbeat.timeout == 25.0
    with pytest.raises(ValueError):
        build_failure_detector("psychic", sim, lan, nodes)


def test_perfect_detector_counts_suspicions_and_restores():
    sim = Simulator()
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 4)]
    detector = FailureDetector(sim, lan, detection_delay=1.0)
    sim.call_at(10.0, nodes[2].crash)
    sim.call_at(20.0, nodes[2].recover)
    sim.run(until=50.0)
    assert detector.suspicion_count == 1
    assert detector.restore_count == 1


def test_perfect_detector_cannot_see_partitions():
    sim = Simulator()
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 4)]
    detector = FailureDetector(sim, lan, detection_delay=1.0)
    lan.install_fault(LinkFault.isolate("iso", "s3", ["s1", "s2", "s3"]))
    sim.run(until=500.0)
    assert detector.suspicion_count == 0     # the documented blind spot


# -- the GCS composition root ---------------------------------------------------------

def build_group(detector_mode, member_count=3, seed=7, **kwargs):
    sim = Simulator(seed=seed)
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, member_count + 1)]
    gcs = GroupCommunicationSystem(sim, lan, detector_mode=detector_mode,
                                   **kwargs)
    gcs.start()
    return sim, lan, nodes, gcs


def test_gcs_default_mode_is_perfect_and_sends_no_heartbeats():
    sim, lan, nodes, gcs = build_group("perfect")
    sim.run(until=200.0)
    assert isinstance(gcs.failure_detector, FailureDetector)
    assert lan.sent_count == 0


def test_gcs_heartbeat_mode_delivers_broadcasts_and_detects_a_crash():
    sim, lan, nodes, gcs = build_group("heartbeat",
                                       heartbeat_period=10.0,
                                       heartbeat_timeout=50.0)
    delivered = {node.name: [] for node in nodes}

    def consumer(name):
        endpoint = gcs.endpoint(name)
        while True:
            delivery = yield endpoint.deliveries.get()
            delivered[name].append(delivery.payload)

    for node in nodes:
        node.spawn(consumer(node.name))
    gcs.endpoint("s2").broadcast("hello")
    sim.call_at(100.0, nodes[2].crash)
    sim.run(until=400.0)
    assert isinstance(gcs.failure_detector, HeartbeatFailureDetector)
    assert delivered["s1"] == ["hello"]
    assert delivered["s2"] == ["hello"]
    assert gcs.failure_detector.is_suspected("s3")
    # The membership consumed the suspicion: s3 left the view.
    assert "s3" not in gcs.membership.view.members
