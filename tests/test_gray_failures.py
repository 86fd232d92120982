"""Tests of the gray-failure modes: degraded disks and slow CPUs.

A gray failure is a node that is alive but useless — it answers, just far
too slowly.  These tests pin the two injection knobs (WAL
``degrade_disk`` and Node ``degrade_cpu``), their restore paths, and the
bit-identity discipline: a degradation scales durations *after* the random
draw, so RNG stream consumption is unchanged.
"""

from __future__ import annotations

import pytest

from repro.db.wal import LogRecord, LogRecordType, WriteAheadLog
from repro.network import Node
from repro.sim import Simulator


def flush_one(sim, wal, txn_id):
    wal.append_commit(txn_id, {"x": 1})
    start = sim.now
    sim.run_until_complete(sim.spawn(wal.flush()))
    return sim.now - start


def test_degraded_disk_inflates_flush_latency_and_restores():
    sim = Simulator(seed=3)
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node, write_time_low=8.0, write_time_high=8.0)
    healthy = flush_one(sim, wal, "t1")
    wal.degrade_disk(10.0)
    degraded = flush_one(sim, wal, "t2")
    wal.restore_disk()
    restored = flush_one(sim, wal, "t3")
    # cpu_time_per_io (0.4) + 8 ms write, with only the write scaled.
    assert healthy == pytest.approx(8.4)
    assert degraded == pytest.approx(80.4)
    assert restored == pytest.approx(8.4)
    assert all(wal.is_logged(txn_id) for txn_id in ("t1", "t2", "t3"))


def test_degradation_factor_must_be_at_least_one():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    with pytest.raises(ValueError):
        wal.degrade_disk(0.5)
    with pytest.raises(ValueError):
        node.degrade_cpu(0.9)


def test_degraded_disk_consumes_the_rng_stream_identically():
    def draws(degrade):
        sim = Simulator(seed=11)
        node = Node(sim, "s1")
        wal = WriteAheadLog(sim, node)
        if degrade:
            wal.degrade_disk(25.0)
        for i in range(5):
            flush_one(sim, wal, f"t{i}")
        # The next value of the stream shows how much was consumed.
        return sim.random.stream("s1.log_write").random()

    assert draws(False) == draws(True)


def test_degraded_cpu_scales_both_costs_and_restores():
    sim = Simulator()
    node = Node(sim, "s1", cpu_time_per_io=0.4, cpu_time_per_network_op=0.07)
    node.degrade_cpu(5.0)
    assert node.cpu_time_per_io == pytest.approx(2.0)
    assert node.cpu_time_per_network_op == pytest.approx(0.35)
    node.degrade_cpu(2.0)       # absolute, not cumulative
    assert node.cpu_time_per_io == pytest.approx(0.8)
    node.restore_cpu()
    assert node.cpu_time_per_io == pytest.approx(0.4)
    assert node.cpu_time_per_network_op == pytest.approx(0.07)


def test_degraded_cpu_slows_io_charges_at_use_time():
    sim = Simulator()
    node = Node(sim, "s1", cpu_time_per_io=1.0)

    def charge():
        yield node.cpu.use(node.cpu_time_per_io)

    sim.run_until_complete(sim.spawn(charge()))
    assert sim.now == pytest.approx(1.0)
    node.degrade_cpu(4.0)
    sim.run_until_complete(sim.spawn(charge()))
    assert sim.now == pytest.approx(5.0)


def test_degraded_cpu_slows_the_network_path_too():
    # Regression: the dispatcher and the sender read the per-message cost
    # once, when they started, so a degradation between two messages never
    # reached reception or sending (the gray-slow-cpu cells of the netsplit
    # matrix slowed database work only).
    from repro.gcs.reliable_broadcast import ReliableBroadcastLayer
    from repro.network import Dispatcher, Lan, Message

    sim = Simulator()
    lan = Lan(sim, latency=0.07)
    sender, receiver = (lan.attach(Node(sim, name)) for name in ("s1", "s2"))
    dispatcher = Dispatcher(sim, receiver)
    handled = []
    dispatcher.register("K", lambda message: handled.append(sim.now))
    dispatcher.start()
    outbound = ReliableBroadcastLayer(sim, lan, sender)
    outbound.start()

    def send():
        outbound.send(Message(sender="s1", destination="s2", kind="K"))

    send()
    sim.run()
    assert handled == [pytest.approx(3 * 0.07)]     # send, wire, receive
    assert receiver.cpu.busy_time == pytest.approx(0.07)
    receiver.degrade_cpu(20.0)
    sender.degrade_cpu(10.0)
    sim.run(until=1.0)
    send()
    sim.run()
    assert handled[1] == pytest.approx(1.0 + (10 + 1 + 20) * 0.07)
    assert receiver.cpu.busy_time == pytest.approx((1 + 20) * 0.07)
    assert sender.cpu.busy_time == pytest.approx((1 + 10) * 0.07)
    receiver.restore_cpu()
    sim.run(until=10.0)
    send()
    sim.run()
    assert handled[2] == pytest.approx(10.0 + (10 + 1 + 1) * 0.07)


def test_degraded_cpu_slows_an_a_delivery_too():
    # Regression: the total-order engine charged a delivery cost captured
    # when it was built, so a gray-slow CPU slowed every network operation
    # but A-delivery.
    from repro.gcs import GroupCommunicationSystem
    from repro.gcs.total_order import _PendingMessage
    from repro.network import Lan

    sim = Simulator()
    lan = Lan(sim)
    node = lan.attach(Node(sim, "s1", cpu_time_per_network_op=0.07))
    gcs = GroupCommunicationSystem(sim, lan)
    gcs.start()
    endpoint = gcs.endpoint("s1")
    delivered = []

    def application():
        while True:
            yield endpoint.deliveries.get()
            delivered.append(sim.now)

    node.spawn(application())
    sim.run(until=1.0)
    node.degrade_cpu(5.0)
    endpoint._ready.put((1, _PendingMessage("s1#1", "payload", "s1"), False))
    sim.run()
    assert delivered == [pytest.approx(1.0 + 0.35)]
    assert node.cpu.busy_time == pytest.approx(0.35)


def test_local_database_passthrough():
    from repro.db.engine import LocalDatabase

    sim = Simulator(seed=5)
    node = Node(sim, "s1")
    database = LocalDatabase(sim, node, item_count=10)
    database.degrade_disk(3.0)
    assert database.wal._disk_factor == 3.0
    database.restore_disk()
    assert database.wal._disk_factor == 1.0
