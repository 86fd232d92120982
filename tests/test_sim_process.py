"""Tests of generator-based processes: completion, interrupts, kills, errors."""

from __future__ import annotations

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_process_completes_with_return_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return "result"

    process = sim.spawn(worker())
    sim.run()
    assert process.triggered and process.ok
    assert process.value == "result"
    assert not process.is_alive


def test_process_requires_a_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_waiting_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 21

    def parent():
        value = yield sim.spawn(child())
        return value * 2

    process = sim.spawn(parent())
    sim.run()
    assert process.value == 42
    assert sim.now == 3.0


def test_exception_inside_process_propagates_to_waiter():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("inner failure")

    def waiter():
        try:
            yield sim.spawn(failing())
        except ValueError as error:
            return f"caught {error}"

    process = sim.spawn(waiter())
    sim.run()
    assert process.value == "caught inner failure"


def test_unhandled_process_exception_raises_at_run():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("nobody catches this")

    sim.spawn(failing())
    with pytest.raises(ValueError, match="nobody catches this"):
        sim.run()


def test_interrupt_is_delivered_as_exception():
    sim = Simulator()

    def worker():
        try:
            yield sim.timeout(100.0)
            return "finished"
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)

    process = sim.spawn(worker())
    sim.call_after(5.0, lambda: process.interrupt("please stop"))
    sim.run()
    assert process.value == ("interrupted", "please stop", 5.0)


def test_interrupting_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "ok"

    process = sim.spawn(quick())
    sim.run()
    process.interrupt("late")  # must not raise
    assert process.value == "ok"


def test_kill_terminates_without_resuming():
    sim = Simulator()
    progress = []

    def worker():
        progress.append("started")
        yield sim.timeout(50.0)
        progress.append("should never happen")

    process = sim.spawn(worker())
    sim.call_after(10.0, lambda: process.kill("crash"))
    sim.run()
    assert progress == ["started"]
    assert process.triggered and not process.ok
    assert isinstance(process.value, Interrupt)


def test_killed_process_does_not_raise_at_top_level():
    sim = Simulator()

    def worker():
        yield sim.timeout(50.0)

    process = sim.spawn(worker())
    sim.call_after(1.0, lambda: process.kill())
    sim.run()  # must not raise even though nobody waits on the process


def test_process_must_yield_events():
    sim = Simulator()

    def bad():
        yield "not an event"

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_cannot_yield_foreign_events():
    sim_a, sim_b = Simulator(), Simulator()

    def bad():
        yield sim_b.timeout(1.0)

    sim_a.spawn(bad())
    with pytest.raises(SimulationError):
        sim_a.run()


# -------------------------------------------- hand-offs that take no kernel event
def test_completion_with_a_waiter_resumes_it_at_the_same_instant():
    sim = Simulator()
    seen = []

    def child():
        yield sim.timeout(3.0)
        return "done"

    def parent():
        value = yield sim.spawn(child())
        seen.append((value, sim.now))

    sim.spawn(parent())
    sim.run()
    assert seen == [("done", 3.0)]
    # Two bootstraps, the timeout, the child's completion (it has a waiter);
    # the parent's own completion has none and is not queued.
    assert sim.scheduled_events == 4


def test_waiterless_completion_is_processed_without_being_queued():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return 7

    process = sim.spawn(worker())
    sim.run()
    assert sim.scheduled_events == 2          # the bootstrap and the timeout
    assert process.processed and process.ok and process.value == 7
    assert not process.is_alive
    called = []
    process.add_callback(lambda event: called.append(event.value))
    assert called == [7]                      # at once, as for any processed event

    def late_waiter():
        value = yield process
        return value, sim.now

    assert sim.run_until_complete(sim.spawn(late_waiter())) == (7, 2.0)


def test_waiterless_failure_still_raises_out_of_run():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise KeyError("nobody is listening")

    sim.spawn(worker())
    with pytest.raises(KeyError, match="nobody is listening"):
        sim.run()
    assert sim.now == 1.0


def test_waiting_on_an_open_gate_schedules_nothing():
    from repro.sim import Gate

    sim = Simulator()
    gate = Gate(sim, opened=True)
    passed = []

    def waiter():
        for _ in range(3):
            yield gate.wait()
            passed.append(sim.now)
        yield sim.timeout(1.0)
        passed.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert passed == [0.0, 0.0, 0.0, 1.0]
    assert sim.scheduled_events == 2          # the bootstrap and the timeout


def test_waiting_on_a_closed_gate_resumes_at_open_as_before():
    from repro.sim import Gate

    sim = Simulator()
    gate = Gate(sim)
    passed = []

    def waiter():
        value = yield gate.wait()
        passed.append((value, sim.now))

    sim.spawn(waiter())
    sim.call_after(5.0, gate.open, "go")
    sim.run()
    assert passed == [("go", 5.0)]
    # Bootstrap, the deferred open, the waiter's wake-up.
    assert sim.scheduled_events == 3
