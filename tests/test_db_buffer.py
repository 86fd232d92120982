"""Tests of the buffer pool: hit ratio, write paths, back-pressure, flusher."""

from __future__ import annotations

import pytest

from repro.db import BufferPool
from repro.db.buffer import WRITE_BEHIND_BATCH
from repro.db.transaction import WriteSetMessage
from repro.network import Node
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.workload import SimulationParameters


def make_buffer(sim, **kwargs):
    node = Node(sim, "s1")
    defaults = dict(hit_ratio=0.2, read_time_low=8.0, read_time_high=8.0,
                    write_time_low=8.0, write_time_high=8.0)
    defaults.update(kwargs)
    return node, BufferPool(sim, node, **defaults)


def test_read_miss_uses_disk_and_hit_does_not():
    sim = Simulator(seed=1)
    node, buffer = make_buffer(sim, hit_ratio=0.0)

    def reader():
        yield from buffer.read_item("x")

    node.spawn(reader())
    sim.run()
    assert buffer.read_misses == 1 and buffer.read_hits == 0
    assert node.disk.busy_time == pytest.approx(8.0)

    sim2 = Simulator(seed=1)
    node2, buffer2 = make_buffer(sim2, hit_ratio=1.0)

    def reader2():
        yield from buffer2.read_item("x")

    node2.spawn(reader2())
    sim2.run()
    assert buffer2.read_hits == 1 and buffer2.read_misses == 0
    assert node2.disk.busy_time == 0.0


def test_hit_ratio_statistics_converge():
    sim = Simulator(seed=3)
    node, buffer = make_buffer(sim, hit_ratio=0.2)

    def reader():
        for _ in range(500):
            yield from buffer.read_item("x")

    node.spawn(reader())
    sim.run()
    ratio = buffer.read_hits / (buffer.read_hits + buffer.read_misses)
    assert 0.12 < ratio < 0.28


def test_sync_write_miss_hits_disk():
    sim = Simulator(seed=2)
    node, buffer = make_buffer(sim, hit_ratio=0.0)

    def writer():
        yield from buffer.write_item_sync("x")

    node.spawn(writer())
    sim.run()
    assert buffer.sync_writes == 1
    assert node.disk.busy_time == pytest.approx(8.0)


def test_async_write_marks_dirty_without_disk_time():
    sim = Simulator()
    node, buffer = make_buffer(sim)
    buffer.write_item_async("x")
    buffer.write_item_async("y")
    assert buffer.dirty_count == 2
    assert node.disk.busy_time == 0.0


def test_write_behind_flusher_drains_dirty_items():
    sim = Simulator()
    node, buffer = make_buffer(sim)
    for index in range(5):
        buffer.write_item_async(f"item-{index}")
    buffer.start_write_behind(interval=10.0)
    sim.run(until=200.0)
    assert buffer.dirty_count == 0
    assert buffer.flushed_pages == 5
    assert node.disk.busy_time > 0.0


def test_background_write_factor_reduces_disk_time():
    sim = Simulator(seed=5)
    node, buffer = make_buffer(sim, background_write_factor=0.5)
    buffer.write_item_async("x")

    def drain():
        yield from buffer.flush_some()

    node.spawn(drain())
    sim.run()
    assert node.disk.busy_time == pytest.approx(4.0)


class RecordingResource(Resource):
    """A resource that records the duration of every hold it grants."""

    def __init__(self, sim, capacity, name):
        super().__init__(sim, capacity=capacity, name=name)
        self.holds = []

    def _hold(self, request):
        self.holds.append(request.duration)
        super()._hold(request)


def record_grants(node):
    """Swap the node's CPU and disk for recording ones of the same size."""
    node.cpu = RecordingResource(node.sim, node.cpu.capacity, node.cpu.name)
    node.disk = RecordingResource(node.sim, node.disk.capacity,
                                  node.disk.name)
    return node.cpu, node.disk


def test_flush_some_charges_the_cpu_once_per_batch():
    assert WRITE_BEHIND_BATCH == 16
    sim = Simulator(seed=7)
    node, buffer = make_buffer(sim)
    cpu, disk = record_grants(node)
    for index in range(40):
        buffer.write_item_async(f"item-{index}")

    def drain():
        yield from buffer.flush_some()

    node.spawn(drain())
    sim.run()
    per_io = node.cpu_time_per_io
    assert cpu.holds == [16 * per_io, 16 * per_io, 8 * per_io]
    assert disk.holds == [8.0] * 40      # one disk hold per page
    assert cpu.busy_time == pytest.approx(40 * per_io, abs=1e-12)
    assert disk.busy_time == pytest.approx(40 * 8.0)
    assert buffer.flushed_pages == 40 and buffer.dirty_count == 0


def test_flush_some_takes_a_batch_out_of_the_dirty_count():
    sim = Simulator()
    node, buffer = make_buffer(sim)
    for index in range(20):
        buffer.write_item_async(f"item-{index}")
    node.spawn(buffer.flush_some())
    sim.run(until=0.1)                  # inside the first batch's CPU charge
    assert buffer.dirty_count == 20 - WRITE_BEHIND_BATCH
    assert buffer.flushed_pages == 0


def test_propagated_write_set_charges_the_cpu_once():
    params = SimulationParameters.small(server_count=3, item_count=120)
    cluster = ReplicatedDatabaseCluster("1-safe", params=params, seed=3)
    replica = cluster.replicas["s2"]
    cpu, disk = record_grants(replica.node)
    payload = WriteSetMessage(
        txn_id="remote-1", delegate="s1", read_versions={},
        write_values={f"item-{index}": index for index in range(7)},
        program_id=1)
    replica.node.spawn(replica._apply_propagated([payload]))
    cluster.run(until=200.0)
    per_io = replica.node.cpu_time_per_io
    # The write set: one CPU charge for its 7 pages, then 7 disk holds at
    # the propagation discount; then the batch's one WAL flush (one CPU
    # charge, one disk hold at a full write time).
    assert cpu.holds == [7 * per_io, per_io]
    assert len(disk.holds) == 8
    assert all(hold <= 0.45 * params.write_time_max
               for hold in disk.holds[:7])
    assert replica.db.wal.has_committed("remote-1")


def test_backpressure_gate_closes_and_reopens():
    sim = Simulator()
    node, buffer = make_buffer(sim, max_dirty=4, low_watermark=0.5)
    for index in range(4):
        buffer.write_item_async(f"item-{index}")
    assert not buffer.has_space
    assert buffer.throttle_events == 1
    blocked = []

    def producer():
        yield buffer.wait_for_space()
        blocked.append(sim.now)

    def flusher():
        yield from buffer.flush_some()

    node.spawn(producer())
    node.spawn(flusher())
    sim.run()
    assert blocked                      # the producer eventually unblocked
    assert buffer.has_space


def test_wait_for_space_immediate_when_unbounded():
    sim = Simulator()
    node, buffer = make_buffer(sim)      # max_dirty=None
    for index in range(1000):
        buffer.write_item_async(f"item-{index}")
    assert buffer.has_space
    passed = []

    def producer():
        yield buffer.wait_for_space()
        passed.append(sim.now)

    node.spawn(producer())
    sim.run()
    assert passed == [0.0]


def test_lose_volatile_clears_dirty_and_reopens_gate():
    sim = Simulator()
    node, buffer = make_buffer(sim, max_dirty=2)
    buffer.write_item_async("a")
    buffer.write_item_async("b")
    assert not buffer.has_space
    buffer.lose_volatile()
    assert buffer.dirty_count == 0
    assert buffer.has_space


def test_invalid_parameters_rejected():
    sim = Simulator()
    node = Node(sim, "s1")
    with pytest.raises(ValueError):
        BufferPool(sim, node, hit_ratio=1.5)
    with pytest.raises(ValueError):
        BufferPool(sim, node, max_dirty=0)
    with pytest.raises(ValueError):
        BufferPool(sim, node, background_write_factor=0.0)
