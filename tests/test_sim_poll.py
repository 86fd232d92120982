"""The parked poller against the timeout poller it replaced.

``repro.sim.poll`` lets a background loop skip the ticks that find its
source empty.  The reference is the loop it replaced, ``while True: yield
sim.timeout(interval); work()``.  Both are driven side by side with work
arriving at drawn instants — on grid instants too — while one loop is
crashed and restarted, and must do the same work at the same instants in
the same order, with fewer kernel events.

The harness runs three loops, spawned in the order ``a``, ``b``, ``c``:
``a`` and ``b`` do their work in no time, so they stay on the grid they
were spawned on; ``c``'s work takes ``work_fraction`` of an interval, which
moves its grid, and ``c`` is the loop that crashes and restarts.  Every
driver action lands on its instant through a zero-delay hop, so in the
reference run too it comes after the ticks queued for that instant, as the
declared wake rule has it (pollers due at an instant run before the
ordinary events of that instant, in rank order).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.poll import Parked, Poller

LOOPS = ("a", "b", "c")


def grid_instant(interval: float, ticks: int) -> float:
    """The ``ticks``-th instant of a grid started at 0, summed as the
    reference's timeouts sum it."""
    at = 0.0
    for _ in range(ticks):
        at += interval
    return at


def run_loops(parked: bool, interval: float, work_fraction: float,
              arrivals, crash_at=None, restart_at=None):
    """Drive the three loops; return the work log and the events scheduled.

    ``arrivals`` is a list of ``(instant, loop)``; a crash kills ``c`` and
    empties its source (its volatile state), a restart spawns it anew.
    """
    sim = Simulator(seed=0)
    sources = {name: [] for name in LOOPS}
    lots = {name: Parked() for name in LOOPS}
    work_ms = interval * work_fraction
    log = []
    processes = {}

    def loop(name):
        source = sources[name]
        poll = Poller(sim, interval, lots[name]) if parked else None
        while True:
            if parked:
                yield poll.next_tick(idle=not source)
            else:
                yield sim.timeout(interval)
            if source:
                log.append((sim.now, name))
                source.clear()
                if name == "c" and work_ms > 0:
                    yield sim.timeout(work_ms)

    def start(name):
        processes[name] = sim.spawn(loop(name), name=name)

    actions = [(at, "work", name) for at, name in arrivals]
    if crash_at is not None:
        actions.append((crash_at, "crash", "c"))
        actions.append((restart_at, "restart", "c"))
    actions.sort(key=lambda action: action[0])

    def driver():
        for at, kind, name in actions:
            yield sim.timeout(at - sim.now)
            yield sim.timeout(0.0)
            if kind == "work":
                sources[name].append(at)
                if lots[name]:
                    lots[name].notify()
            elif kind == "crash":
                processes[name].kill()
                sources[name].clear()
                lots[name].clear()
            else:
                start(name)

    for name in LOOPS:
        start(name)
    sim.spawn(driver())
    last = max([at for at, _kind, _name in actions], default=0.0)
    sim.run(until=last + 3.0 * interval + work_ms)
    return log, sim.scheduled_events


def assert_same_work_with_fewer_events(*args, **kwargs):
    log, events = run_loops(True, *args, **kwargs)
    ref_log, ref_events = run_loops(False, *args, **kwargs)
    assert log == ref_log
    assert events < ref_events
    return log


def test_an_arrival_on_a_grid_instant_is_worked_at_the_next_one():
    log = assert_same_work_with_fewer_events(
        50.0, 0.0, [(grid_instant(50.0, 2), "a")])
    assert log == [(150.0, "a")]


def test_loops_on_one_grid_notified_in_reverse_rank_order_run_in_rank_order():
    log = assert_same_work_with_fewer_events(
        50.0, 0.0, [(60.0, "b"), (60.0, "a")])
    assert log == [(100.0, "a"), (100.0, "b")]


def test_a_loop_crashed_while_parked_restarts_on_its_own_grid():
    # c parks at once, is killed at 75 with nothing to do, takes work at 90
    # while down and again at 140, and restarts at 130: its grid is now
    # 130 + 50 k, and the dead loop's parked entry wakes nothing.
    log = assert_same_work_with_fewer_events(
        50.0, 0.3, [(90.0, "c"), (140.0, "c")], crash_at=75.0,
        restart_at=130.0)
    assert log == [(180.0, "c")]


def test_a_tick_runs_before_the_ordinary_events_of_its_instant():
    # The declared wake rule, on an input where the timeout loop differs:
    # an event queued at 0 for 100 would run before a timeout the loop
    # queued at 50.  The oracle's driver actions take a hop to stay clear.
    sim = Simulator()
    source, lot, log = [], Parked(), []

    def loop():
        poll = Poller(sim, 50.0, lot)
        while True:
            yield poll.next_tick(idle=not source)
            if source:
                log.append((sim.now, "loop"))
                source.clear()

    def arrive():
        source.append(1)
        lot.notify()

    sim.call_at(100.0, lambda: log.append((sim.now, "ordinary")))
    sim.spawn(loop())
    sim.call_at(60.0, arrive)
    sim.run(until=200.0)
    assert log == [(100.0, "loop"), (100.0, "ordinary")]


def test_a_poll_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Poller(sim, 0.0, Parked())


def arrival(interval: float):
    on_grid = st.integers(min_value=0, max_value=30).map(
        lambda ticks: grid_instant(interval, ticks))
    anywhere = st.floats(min_value=0.0, max_value=30.0 * interval)
    return st.tuples(st.one_of(on_grid, anywhere), st.sampled_from(LOOPS))


@st.composite
def schedules(draw):
    interval = draw(st.sampled_from([50.0, 7.5, 0.3]))
    work_fraction = draw(st.sampled_from([0.0, 0.25, 0.6, 0.999]))
    arrivals = draw(st.lists(arrival(interval), max_size=12))
    crash_at = restart_at = None
    if draw(st.booleans()):
        crash_at, restart_at = sorted(draw(st.lists(
            st.floats(min_value=0.0, max_value=30.0 * interval),
            min_size=2, max_size=2)))
    return interval, work_fraction, arrivals, crash_at, restart_at


@given(schedules())
@example((50.0, 0.0, [(100.0, "a"), (100.0, "b"), (150.0, "c")],
          150.0, 150.0))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_parked_loops_do_the_timeout_loops_work(schedule):
    """Same (instant, loop) work sequence, fewer scheduled events."""
    interval, work_fraction, arrivals, crash_at, restart_at = schedule
    assert_same_work_with_fewer_events(interval, work_fraction, arrivals,
                                       crash_at=crash_at,
                                       restart_at=restart_at)
