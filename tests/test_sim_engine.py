"""Tests of the discrete-event simulation engine and its event primitives."""

from __future__ import annotations

import pytest

from repro.sim import (AllOf, AnyOf, EventAlreadyTriggered, SchedulingError,
                       SimulationError, Simulator)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).add_callback(lambda event: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (7.0, 3.0, 5.0):
        sim.timeout(delay, value=delay).add_callback(
            lambda event: order.append(event.value))
    sim.run()
    assert order == [3.0, 5.0, 7.0]


def test_ties_broken_by_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.timeout(2.0, value=tag).add_callback(
            lambda event: order.append(event.value))
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(100.0)
    stopped_at = sim.run(until=40.0)
    assert stopped_at == 40.0
    assert sim.now == 40.0
    # The pending event is still runnable afterwards.
    sim.run()
    assert sim.now == 100.0


def test_run_until_in_the_past_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.run(until=5.0)


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed("payload")
    sim.run()
    assert seen == ["payload"]
    assert event.ok and event.processed


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_unhandled_event_failure_raises_from_run():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failure_does_not_raise():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("boom"))
    event.defuse()
    sim.run()  # must not raise


def test_callback_added_after_processing_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed(42)
    sim.run()
    late = []
    event.add_callback(lambda e: late.append(e.value))
    assert late == [42]


def test_call_after_and_call_at():
    sim = Simulator()
    calls = []
    sim.call_after(3.0, lambda: calls.append(("after", sim.now)))
    sim.call_at(10.0, lambda: calls.append(("at", sim.now)))
    sim.run()
    assert calls == [("after", 3.0), ("at", 10.0)]
    with pytest.raises(SchedulingError):
        sim.call_at(1.0, lambda: None)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    timeouts = [sim.timeout(t, value=t) for t in (1.0, 4.0, 2.0)]
    combined = AllOf(sim, timeouts)
    done_at = []
    combined.add_callback(lambda e: done_at.append(sim.now))
    sim.run()
    assert done_at == [4.0]
    assert sorted(combined.value.values()) == [1.0, 2.0, 4.0]


def test_any_of_fires_on_first_event():
    sim = Simulator()
    slow = sim.timeout(10.0, value="slow")
    fast = sim.timeout(2.0, value="fast")
    combined = AnyOf(sim, [slow, fast])
    done_at = []
    combined.add_callback(lambda e: done_at.append(sim.now))
    sim.run(until=3.0)
    assert done_at == [2.0]
    assert fast in combined.value
    assert slow not in combined.value


def test_empty_all_of_succeeds_immediately():
    sim = Simulator()
    combined = AllOf(sim, [])
    sim.run()
    assert combined.processed and combined.ok


def test_condition_rejects_foreign_events():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.timeout(1.0)
    with pytest.raises(ValueError):
        AllOf(sim_a, [foreign])


def test_step_on_empty_queue_is_an_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_queued_events_counts_pending_events():
    sim = Simulator()
    sim.timeout(9.0)
    sim.timeout(3.0)
    assert sim.queued_events == 2


def test_run_until_complete_returns_process_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(4.0)
        return "done"

    process = sim.spawn(worker())
    assert sim.run_until_complete(process) == "done"


def test_run_until_complete_detects_deadlock():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    process = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def test_run_until_complete_respects_time_limit():
    sim = Simulator()

    def slow():
        yield sim.timeout(1000.0)

    process = sim.spawn(slow())
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_complete(process, limit=10.0)
