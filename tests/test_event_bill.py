"""The exact event bill (``tests/event_bill.py``): every kernel event of a run
booked to the site that scheduled it."""

from __future__ import annotations

from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.sim import Simulator
from repro.workload import OpenLoopClientPool, SimulationParameters
from tests.event_bill import UNATTRIBUTED, EventBill


def test_the_bill_books_outside_program_and_kernel_pushes_apart():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    with EventBill() as bill:
        sim.call_after(2.0, lambda: None)          # from this test: no site
        waiter = sim.spawn(worker())
        waiter.add_callback(lambda _event: None)   # its end is queued
        sim.run()
    assert bill.total == sim.scheduled_events == 4
    assert bill.sites() == {UNATTRIBUTED: 3, "kernel process._resume": 1}


def test_a_group_safe_commit_is_billed_with_no_zero_time_hand_off():
    """Three servers, group-safe at 30 tps for 2 s: every event is booked,
    and none is a hop that takes no simulated time — no process started per
    commit to apply it, no delivery process woken per A-delivery (the
    ordered message goes straight to its CPU charge), no process per client
    transaction."""
    params = SimulationParameters.small(server_count=3, item_count=200)
    cluster = ReplicatedDatabaseCluster("group-safe", params=params, seed=3)
    with EventBill() as bill:
        cluster.start()
        clients = OpenLoopClientPool(cluster, load_tps=30.0)
        clients.start()
        cluster.run(until=2_000.0)
    assert sum(result.committed for result in clients.results) > 40
    assert bill.total == cluster.sim.scheduled_events
    assert bill.sites()[UNATTRIBUTED] == 0
    wakes = bill.sites("Event")
    assert wakes["node.spawn ← dbsm._handle_commit"] == 0
    assert wakes["clients._arrivals"] == 0
    # The one wake in the total-order layer is the application's ``get``.
    assert [site for site in wakes if site.startswith("total_order.")] == \
        ["total_order._deliver ← total_order._hand_up"]
    assert bill.sites("Request")[
        "total_order._try_deliver ← total_order._on_decide"] > 0
