"""Tests of the network substrate: LAN, nodes, dispatcher."""

from __future__ import annotations

import pytest

from repro.network import Dispatcher, Lan, Message, Node
from repro.sim import Simulator


def make_lan(sim, count=3):
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, count + 1)]
    return lan, nodes


def test_point_to_point_delivery_after_latency():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    lan.send(Message(sender="s1", destination="s2", kind="PING", payload=7))
    received = []

    def consumer():
        message = yield b.inbox.get()
        received.append((message.payload, sim.now))

    b.spawn(consumer())
    sim.run()
    assert received == [(7, pytest.approx(0.07))]
    assert lan.delivered_count == 1


def test_broadcast_reaches_every_node_including_sender():
    sim = Simulator()
    lan, nodes = make_lan(sim)
    lan.broadcast(Message(sender="s1", destination="*", kind="HELLO"))
    sim.run()
    assert all(node.inbox.pending_items == 1 for node in nodes)


def _fan_out(use_broadcast, jitter=0.0, slow_pair=None):
    """One message to s1..s5 plus an unknown and a blocked destination, by
    ``broadcast`` or by the equivalent ``send`` loop; what arrived, the
    counters and the number of kernel events it took."""
    from repro.network.faults import LinkFault

    sim = Simulator(seed=4)
    lan = Lan(sim, jitter=jitter)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 6)]
    lan.block("s1", "s3")
    if slow_pair is not None:
        lan.install_fault(LinkFault("slow",
                                    latency_factors=((slow_pair, 3.0),)))
    arrivals = []
    deliver = lan._deliver
    lan._deliver = lambda message, node: (
        arrivals.append((sim.now, message.destination, message.sent_at)),
        deliver(message, node))
    names = ["s1", "s2", "nowhere", "s3", "s4", "s5"]
    before = sim.scheduled_events
    message = Message(sender="s1", destination="*", kind="HELLO")
    if use_broadcast:
        lan.broadcast(message, names)
    else:
        for name in names:
            lan.send(message.with_destination(name))
    events = sim.scheduled_events - before
    nodes[3].crash()        # s4 goes down while its copy is in flight
    sim.run()
    return arrivals, (lan.sent_count, lan.delivered_count,
                      dict(lan.dropped_by_cause)), events


@pytest.mark.parametrize("options,broadcast_events", [
    ({}, 1),                                   # one delay: one event
    ({"slow_pair": ("s1", "s4")}, 3),          # runs s1 s2 | s4 | s5
    ({"jitter": 0.05}, 4),                     # every delay differs
])
def test_broadcast_is_the_send_loop_in_fewer_events(options, broadcast_events):
    sends, send_counters, send_events = _fan_out(False, **options)
    fanned, counters, events = _fan_out(True, **options)
    assert fanned == sends                     # same order, times, sent_at
    assert sorted(name for _, name, _ in fanned) == ["s1", "s2", "s4", "s5"]
    assert counters == send_counters == (6, 3, {
        "destination-unknown": 1, "partitioned": 1, "destination-crashed": 1})
    assert (send_events, events) == (4, broadcast_events)


def test_message_to_unknown_or_crashed_node_dropped():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    lan.send(Message(sender="s1", destination="nowhere", kind="X"))
    b.crash()
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    sim.run()
    assert lan.dropped_count == 2
    assert lan.delivered_count == 0


def test_message_dropped_if_destination_crashes_in_flight():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    b.crash()           # crash before the 0.07 ms latency elapses
    sim.run()
    assert lan.dropped_count == 1


def test_partition_blocks_and_heals():
    sim = Simulator()
    lan, (a, b, c) = make_lan(sim)
    lan.partition(["s1"], ["s2", "s3"])
    assert lan.is_blocked("s1", "s2") and lan.is_blocked("s3", "s1")
    assert not lan.is_blocked("s2", "s3")
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    sim.run()
    assert lan.dropped_count == 1
    lan.heal()
    lan.send(Message(sender="s1", destination="s2", kind="X"))
    sim.run()
    assert lan.delivered_count == 1


def test_duplicate_node_names_rejected():
    sim = Simulator()
    lan = Lan(sim)
    lan.attach(Node(sim, "s1"))
    with pytest.raises(ValueError):
        lan.attach(Node(sim, "s1"))


def test_node_crash_kills_processes_and_preserves_stable_storage():
    sim = Simulator()
    node = Node(sim, "s1")
    stable = node.register_stable("log", ["entry"])
    progress = []

    def worker():
        yield sim.timeout(100.0)
        progress.append("finished")

    node.spawn(worker())
    node.inbox.put("pending message")
    sim.call_after(10.0, node.crash)
    sim.run()
    assert progress == []                       # the process was killed
    assert node.inbox.pending_items == 0        # volatile inbox wiped
    assert node.stable("log") == ["entry"]      # stable storage survived
    assert node.is_crashed and node.crash_count == 1


def test_crashed_node_refuses_new_processes_until_recovery():
    sim = Simulator()
    node = Node(sim, "s1")
    node.crash()
    with pytest.raises(RuntimeError):
        node.spawn(iter(()))
    node.recover()
    assert node.is_up
    assert node.recovery_times


def test_node_listener_notifications():
    sim = Simulator()
    node = Node(sim, "s1")
    events = []
    node.add_listener(lambda n, event: events.append(event))
    node.crash()
    node.crash()      # double crash is a no-op
    node.recover()
    node.recover()    # double recovery is a no-op
    assert events == ["crash", "recover"]


def test_node_rejects_invalid_hardware():
    sim = Simulator()
    with pytest.raises(ValueError):
        Node(sim, "bad", cpus=0)


def test_dispatcher_routes_by_kind_and_counts_unhandled():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    dispatcher = Dispatcher(sim, b)
    seen = []
    dispatcher.register("KNOWN", lambda message: seen.append(message.payload))
    dispatcher.start()
    lan.send(Message(sender="s1", destination="s2", kind="KNOWN", payload=1))
    lan.send(Message(sender="s1", destination="s2", kind="UNKNOWN", payload=2))
    sim.run()
    assert seen == [1]
    assert dispatcher.dispatched_count == 2
    assert dispatcher.unhandled_count == 1


def test_dispatcher_default_handler_and_restart():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    dispatcher = Dispatcher(sim, b)
    fallback = []
    dispatcher.register_default(lambda message: fallback.append(message.kind))
    dispatcher.start()
    assert dispatcher.is_running
    lan.send(Message(sender="s1", destination="s2", kind="ANY"))
    sim.run()
    assert fallback == ["ANY"]
    b.crash()
    assert not dispatcher.is_running
    b.recover()
    dispatcher.start()
    lan.send(Message(sender="s1", destination="s2", kind="AGAIN"))
    sim.run()
    assert fallback == ["ANY", "AGAIN"]


def test_dispatcher_charges_cpu_for_reception():
    sim = Simulator()
    lan, (a, b, _c) = make_lan(sim)
    dispatcher = Dispatcher(sim, b)
    dispatcher.register("K", lambda message: None)
    dispatcher.start()
    lan.send(Message(sender="s1", destination="s2", kind="K"))
    sim.run()
    assert b.cpu.busy_time == pytest.approx(b.cpu_time_per_network_op)


def test_message_with_destination_keeps_identity():
    original = Message(sender="s1", destination="*", kind="K", payload="x")
    copy = original.with_destination("s2")
    assert copy.message_id == original.message_id
    assert copy.destination == "s2"
    assert copy.payload == "x"
