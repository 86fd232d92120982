"""Tests of resources, stores and gates."""

from __future__ import annotations

import pytest

from repro.sim import (Event, Gate, Resource, SimulationError, Simulator,
                       Store)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first, second, third = (resource.use(5.0) for _ in range(3))
    assert first.granted_at == second.granted_at == 0.0
    assert third.granted_at is None
    assert resource.in_use == 2
    assert resource.queue_length == 1
    assert resource.granted_count == 2


def test_resource_release_wakes_fifo_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    completion_order = []

    def worker(name, duration):
        yield resource.use(duration)
        completion_order.append((name, sim.now))

    sim.spawn(worker("a", 5.0))
    sim.spawn(worker("b", 3.0))
    sim.spawn(worker("c", 2.0))
    sim.run()
    assert completion_order == [("a", 5.0), ("b", 8.0), ("c", 10.0)]


def test_resource_parallel_slots():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    done = []

    def worker(name):
        yield resource.use(4.0)
        done.append((name, sim.now))

    for name in ("a", "b", "c"):
        sim.spawn(worker(name))
    sim.run()
    assert done == [("a", 4.0), ("b", 4.0), ("c", 8.0)]


def test_resource_rejects_bad_capacity_and_negative_duration():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
    resource = Resource(sim, capacity=1)
    with pytest.raises(ValueError):
        resource.use(-0.1)
    assert resource.in_use == 0 and resource.granted_count == 0


def test_a_charge_is_one_event_yielded_once():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def uncontended():
        yield resource.use(5.0)

    sim.run_until_complete(sim.spawn(uncontended()))
    # The process bootstrap and the charge.  The process's own completion
    # has no waiter (``run_until_complete`` polls), so it is not queued.
    assert sim.scheduled_events == 2

    def stale():
        yield from resource.use(5.0)

    with pytest.raises(TypeError, match="not iterable"):
        sim.run_until_complete(sim.spawn(stale()))


def test_slot_is_free_before_the_charging_process_resumes():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    seen = []

    def holder():
        yield resource.use(2.0)
        seen.append((resource.in_use, resource.queue_length,
                     waiter.granted_at))

    sim.spawn(holder())
    sim.run(until=0.5)
    waiter = resource.use(1.0)
    sim.run()
    # When the holder resumed its slot had already gone to the waiter.
    assert seen == [(1, 0, 2.0)]
    assert sim.now == 3.0


def test_resource_busy_time_accounting():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def worker(duration):
        yield resource.use(duration)

    sim.spawn(worker(6.0))
    sim.spawn(worker(1.5))
    sim.run(until=3.0)
    assert (resource.in_use, resource.queue_length) == (1, 1)
    assert resource.busy_time == 0.0          # accrued when a hold ends
    assert resource.granted_count == 1
    sim.run()
    assert resource.busy_time == pytest.approx(7.5)
    assert resource.granted_count == 2
    assert (resource.in_use, resource.queue_length) == (0, 0)


def _three_processes(victim_duration):
    """Capacity 1: p1 holds 5 ms, p2 and p3 queue behind it at 0 / 1 ms."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    served = []

    def worker(name, delay, duration):
        yield sim.timeout(delay)
        yield resource.use(duration)
        served.append((name, sim.now))

    processes = [sim.spawn(worker("p1", 0.0, 5.0)),
                 sim.spawn(worker("p2", 0.0, victim_duration)),
                 sim.spawn(worker("p3", 1.0, 2.0))]
    return sim, resource, served, processes


@pytest.mark.parametrize("stop", ("kill", "interrupt"))
def test_process_stopped_while_queued_leaves_the_queue(stop):
    # Regression: the queued request of a killed process used to be granted
    # later and never released — in_use stuck at 1, p3 never served.
    sim, resource, served, (_, p2, _) = _three_processes(victim_duration=4.0)
    sim.run(until=1.0)
    assert resource.queue_length == 2
    getattr(p2, stop)()
    p2.defuse()
    sim.run(until=1.0)
    assert resource.queue_length == 1
    sim.run(until=100.0)
    assert served == [("p1", 5.0), ("p3", 7.0)]
    assert resource.in_use == 0
    assert resource.granted_count == 2
    assert resource.busy_time == pytest.approx(7.0)


@pytest.mark.parametrize("stop", ("kill", "interrupt"))
def test_process_stopped_while_holding_frees_the_slot_at_that_instant(stop):
    sim, resource, served, (p1, _, _) = _three_processes(victim_duration=4.0)
    sim.run(until=1.0)
    getattr(p1, stop)()
    p1.defuse()
    sim.run(until=1.0)
    # Slot handed over at 1 ms: busy time up to it, FIFO waiter granted.
    assert resource.busy_time == pytest.approx(1.0)
    assert (resource.in_use, resource.queue_length) == (1, 1)
    sim.run(until=100.0)
    # p1's completion entry popped at 5 ms, inert: p2 kept its slot.
    assert served == [("p2", 5.0), ("p3", 7.0)]
    assert resource.in_use == 0
    assert resource.busy_time == pytest.approx(7.0)


def test_resource_cancel_all_clears_state():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.use(4.0)
    resource.use(4.0)
    sim.run(until=1.0)
    resource.cancel_all()
    assert resource.in_use == 0
    assert resource.queue_length == 0
    assert resource.busy_time == pytest.approx(1.0)   # partial, up to now


def test_crash_makes_held_and_queued_charges_inert():
    from repro.network.node import Node

    sim = Simulator()
    node = Node(sim, "s1", cpus=1)
    resumed = []

    def worker(name):
        yield node.cpu.use(4.0)
        resumed.append(name)

    node.spawn(worker("held"))
    node.spawn(worker("queued"))
    sim.run(until=1.0)
    assert (node.cpu.in_use, node.cpu.queue_length) == (1, 1)
    node.crash()
    node.recover()
    assert (node.cpu.in_use, node.cpu.queue_length) == (0, 0)

    def fresh():
        yield node.cpu.use(10.0)
        resumed.append(("fresh", sim.now))

    node.spawn(fresh())
    sim.run(until=6.0)      # past the old completion times (4 ms, 8 ms)...
    assert node.cpu.in_use == 1 and resumed == []
    sim.run()               # ...which took nothing from the fresh charge
    assert resumed == [("fresh", 11.0)]
    assert node.cpu.in_use == 0
    assert node.cpu.granted_count == 2
    assert node.cpu.busy_time == pytest.approx(1.0 + 10.0)


def test_cancel_all_fails_the_charge_of_a_surviving_process():
    # A process not hosted on the crashed node (the migration driver's
    # chunk copy reading a source disk) must not mistake the crash for I/O.
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def survivor():
        try:
            yield resource.use(4.0)
        except SimulationError:
            return sim.now
        return "completed"

    process = sim.spawn(survivor())
    sim.run(until=1.0)
    resource.cancel_all()
    sim.run()
    assert process.value == 4.0


def test_crash_fails_the_queued_charge_of_a_surviving_process():
    # Regression: only *holders* of a crashed node's disk were failed; a
    # surviving process still *queued* for it was dropped from the queue and
    # never resumed (a migration's chunk copy behind client reads on the
    # source disk wedged the migration driver forever).
    from repro.network.node import Node

    sim = Simulator()
    node = Node(sim, "s1", disks=1)
    seen = {}

    def charge(name):
        try:
            yield node.disk.use(4.0)
        except SimulationError:
            seen[name] = sim.now

    sim.spawn(charge("foreign-held"))
    sim.spawn(charge("foreign-queued"))
    node.spawn(charge("hosted-queued"))
    sim.run(until=1.0)
    assert (node.disk.in_use, node.disk.queue_length) == (1, 2)
    scheduled = sim.scheduled_events
    node.crash()
    # Two new events: the hosted process's kill and the foreign queued
    # charge's failure.  The holder's completion entry was already there, so
    # a crash with no foreign waiter schedules nothing it did not before.
    assert sim.scheduled_events == scheduled + 2
    sim.run()
    assert seen == {"foreign-queued": 1.0, "foreign-held": 4.0}


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    received = []

    def consumer():
        for _ in range(2):
            item = yield store.get()
            received.append(item)

    sim.spawn(consumer())
    sim.run()
    assert received == ["a", "b"]


def test_store_blocking_get_wakes_on_put():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer():
        item = yield store.get()
        received.append((item, sim.now))

    def producer():
        yield sim.timeout(7.0)
        store.put("late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert received == [("late", 7.0)]


def test_store_clear_drops_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.clear()
    assert len(store) == 0
    assert len(store) == 0


# ---------------------------------------------------------------- served store
def serve_recording(sim, store, resource, cost=2.0):
    handled = []
    store.serve(resource, lambda: cost,
                lambda item: handled.append((item, sim.now)))
    return handled


def test_served_store_is_fifo_one_charge_one_event_per_item():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    store = Store(sim)
    handled = serve_recording(sim, store, resource)
    for item in "abc":
        store.put(item)
    # One item at a time, whatever the capacity; only its charge is queued.
    assert (resource.in_use, len(store)) == (1, 3)
    assert sim.scheduled_events == 1
    sim.run()
    assert handled == [("a", 2.0), ("b", 4.0), ("c", 6.0)]
    assert sim.scheduled_events == 3
    assert (resource.granted_count, resource.busy_time) == (3, 6.0)
    assert len(store) == 0 and store.is_served


def test_served_store_calls_the_handler_before_charging_the_next_item():
    # The handler's own charge must reach the resource first (a dispatcher
    # handler's ``rb.send`` goes before the next reception).
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    order = []

    def handler(item):
        order.append((item, sim.now))
        resource.use(1.0).add_callback(
            lambda event: order.append((f"reply-{item}", sim.now)))

    store.serve(resource, lambda: 2.0, handler)
    store.put("a")
    store.put("b")
    sim.run()
    assert order == [("a", 2.0), ("reply-a", 3.0), ("b", 5.0),
                     ("reply-b", 6.0)]


def test_served_store_reads_the_cost_when_each_charge_starts():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    costs = iter((1.0, 5.0))
    handled = []
    store.serve(resource, lambda: next(costs),
                lambda item: handled.append((item, sim.now)))
    store.put("a")
    store.put("b")
    sim.run()
    assert handled == [("a", 1.0), ("b", 6.0)]


def test_items_put_before_serve_are_served_after_it():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    store.put("early")
    sim.run(until=3.0)
    assert len(store) == 1 and not store.is_served
    handled = serve_recording(sim, store, resource)
    store.put("late")
    sim.run()
    assert handled == [("early", 5.0), ("late", 7.0)]


def test_a_served_store_has_one_consumer():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    serve_recording(sim, store, resource)
    with pytest.raises(SimulationError, match="is served"):
        store.get()
    with pytest.raises(SimulationError, match="already has a consumer"):
        store.serve(resource, lambda: 1.0, print)
    parked = Store(sim)
    parked.get()
    with pytest.raises(SimulationError, match="already has a consumer"):
        parked.serve(resource, lambda: 1.0, print)


def test_clearing_a_served_store_mid_charge_frees_the_slot():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    handled = serve_recording(sim, store, resource, cost=4.0)
    store.put("held")
    store.put("backlog")
    sim.run(until=1.0)
    scheduled = sim.scheduled_events
    store.clear()
    assert (resource.in_use, len(store)) == (0, 0)
    assert resource.busy_time == pytest.approx(1.0)
    assert not store.is_served
    sim.run()           # the completion entry at 4 ms pops inert
    assert handled == [] and sim.scheduled_events == scheduled


def test_clearing_a_served_store_whose_charge_is_queued_leaves_the_queue():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    handled = serve_recording(sim, store, resource)
    holder = resource.use(10.0)
    store.put("queued")
    assert resource.queue_length == 1
    store.clear()
    assert resource.queue_length == 0
    sim.run()
    assert handled == [] and holder.processed
    assert resource.granted_count == 1


@pytest.mark.parametrize("contended", (False, True))
def test_crash_drops_a_served_charge_without_scheduling_anything(contended):
    # Held: its completion entry is already on the heap.  Queued on a
    # contended CPU: it has none, and gets none — nobody waits for it.
    from repro.network.node import Node

    sim = Simulator()
    node = Node(sim, "s1", cpus=1)
    handled = []
    node.serve(node.inbox, handled.append)
    if contended:
        node.cpu.use(10.0)
    node.inbox.put("in-flight")
    node.inbox.put("backlog")
    sim.run(until=0.01)
    assert node.cpu.queue_length == (1 if contended else 0)
    scheduled = sim.scheduled_events
    node.crash()
    assert sim.scheduled_events == scheduled
    assert not node.inbox.is_served and len(node.inbox) == 0
    sim.run()
    assert handled == [] and sim.scheduled_events == scheduled


def test_a_completion_left_from_before_a_crash_is_inert_after_restart():
    from repro.network.node import Node

    sim = Simulator()
    node = Node(sim, "s1", cpus=1, cpu_time_per_network_op=4.0)
    handled = []

    def handler(item):
        handled.append((item, sim.now))

    node.serve(node.inbox, handler)
    node.inbox.put("lost")
    sim.run(until=1.0)
    node.crash()
    node.recover()
    node.serve(node.inbox, handler)
    sim.run(until=3.0)
    node.inbox.put("fresh")       # charged 3 → 7 ms; "lost" would end at 4
    sim.run(until=5.0)
    assert handled == [] and node.cpu.in_use == 1
    sim.run()
    assert handled == [("fresh", 7.0)]
    assert node.cpu.busy_time == pytest.approx(1.0 + 4.0)


def test_a_handler_that_clears_and_reserves_the_store_ends_its_own_run():
    # A dispatcher handler may crash its node; whatever serves the store
    # afterwards is a new run, and the old completion must not drive it.
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    handled = []

    def second(item):
        handled.append(("second", item, sim.now))

    def first(item):
        handled.append(("first", item, sim.now))
        store.clear()
        store.serve(resource, lambda: 1.0, second)
        store.put("after")

    store.serve(resource, lambda: 2.0, first)
    store.put("a")
    store.put("dropped")
    sim.run()
    assert handled == [("first", "a", 2.0), ("second", "after", 3.0)]
    assert resource.granted_count == 2 and resource.in_use == 0


def chained_handler(sim, resource, handled, hold=3.0):
    """A handler with more work per item: a further ``hold`` on
    ``resource``, after which the item counts as handled."""
    def handler(item):
        done = Event(sim)

        def held():
            handled.append((item, sim.now))
            done.succeed()

        resource.use_then(hold, held)
        return done
    return handler


def test_a_served_store_waits_for_the_event_its_handler_returns():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    store = Store(sim)
    handled = []
    store.serve(resource, lambda: 2.0, chained_handler(sim, resource,
                                                       handled))
    store.put("a")
    store.put("b")
    sim.run(until=4.0)
    # "a": charged 0 → 2, held 2 → 5; "b" is not charged before 5, although
    # the second slot is free.
    assert (resource.in_use, len(store)) == (1, 1)
    sim.run()
    assert handled == [("a", 5.0), ("b", 10.0)]
    assert (resource.granted_count, resource.busy_time) == (4, 10.0)
    store.put("c")      # an idle store charges at the put, as before
    assert resource.in_use == 1


def test_clearing_a_served_store_that_waits_for_its_handler():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    handled = []
    store.serve(resource, lambda: 2.0, chained_handler(sim, resource,
                                                       handled))
    store.put("a")
    store.put("dropped")
    sim.run(until=3.0)
    store.clear()
    assert not store.is_served and len(store) == 0
    # The handler's own work is not the store's: it runs on, and its event
    # no longer resumes serving, not even a store served anew meanwhile.
    fresh = []
    store.serve(resource, lambda: 1.0,
                lambda item: fresh.append((item, sim.now)))
    store.put("fresh")
    sim.run()
    assert handled == [("a", 5.0)]
    assert fresh == [("fresh", 6.0)]
    assert resource.granted_count == 3 and resource.in_use == 0


def test_a_crash_mid_chain_drops_the_chain_and_schedules_nothing():
    from repro.network.node import Node

    sim = Simulator()
    node = Node(sim, "s1", cpus=1, cpu_time_per_network_op=2.0)
    store = Store(sim)
    handled = []
    node.serve(store, chained_handler(sim, node.disk, handled))
    node.add_listener(lambda _node, event: store.clear())
    store.put("lost")
    store.put("backlog")
    sim.run(until=3.0)          # "lost" holds a disk, 2 → 5 ms
    assert node.disk.in_use == 1
    scheduled = sim.scheduled_events
    node.crash()
    sim.run()
    assert handled == [] and sim.scheduled_events == scheduled
    assert node.disk.busy_time == pytest.approx(1.0)
    assert node.cpu.granted_count == 1


def test_use_then_continues_after_the_slot_is_back_and_cancels_with_it():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    seen = []
    resource.use_then(2.0, lambda: seen.append((sim.now, resource.in_use)))
    cancelled = resource.use_then(1.0, lambda: seen.append("cancelled"))
    sim.run(until=1.0)
    cancelled.cancel()
    sim.run()
    assert seen == [(2.0, 0)]
    assert resource.granted_count == 1


def test_gate_blocks_until_opened():
    sim = Simulator()
    gate = Gate(sim)
    passed = []

    def waiter(name):
        yield gate.wait()
        passed.append((name, sim.now))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.call_after(5.0, gate.open)
    sim.run()
    assert passed == [("a", 5.0), ("b", 5.0)]


def test_open_gate_lets_waiters_through_immediately():
    sim = Simulator()
    gate = Gate(sim, opened=True)
    passed = []

    def waiter():
        yield gate.wait()
        passed.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert passed == [0.0]


def test_gate_close_blocks_future_waiters():
    sim = Simulator()
    gate = Gate(sim, opened=True)
    gate.close()
    passed = []

    def waiter():
        yield gate.wait()
        passed.append(sim.now)

    sim.spawn(waiter())
    sim.run(until=10.0)
    assert passed == []
    gate.open()
    sim.run()
    assert passed == [10.0]
