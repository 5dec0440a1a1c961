"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.events_processed == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_call_soon_runs_after_queued_events_at_same_time():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, "first")
    sim.call_soon(fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(0.5, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 1.5)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def _staged_chain(sim, fired):
    # Each event schedules the next into an empty queue: the staging slot.
    def pingpong():
        fired.append(sim.now)
        sim.schedule(1.0, pingpong)

    sim.schedule(0.0, pingpong)


def _ready_livelock(sim, fired):
    # A same-instant call_soon loop: the ready deque, the clock stuck.
    def spin():
        fired.append(sim.now)
        sim.call_soon(spin)

    sim.call_soon(spin)


def _heap_chain(sim, fired):
    # A far timer stays queued, so every next tick goes through the heap.
    def tick():
        fired.append(sim.now)
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.schedule(1e9, fired.append, "timer")


def _drains_at_budget(sim, fired):
    for i in range(100):
        sim.schedule(float(i), fired.append, i)


@pytest.mark.parametrize("build, raises, pending", [
    (_staged_chain, True, 1),
    (_ready_livelock, True, 1),
    (_heap_chain, True, 2),
    (_drains_at_budget, False, 0),
], ids=["staged", "ready", "heap", "exact_drain"])
def test_max_events_guard(build, raises, pending):
    sim = Simulator()
    fired = []
    build(sim, fired)
    if raises:
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)
    else:
        sim.run(max_events=100)
    assert len(fired) == 100
    assert sim.events_processed == 100
    # The event the budget refused is still queued, not dropped.
    assert sim.pending_events == pending


def test_event_cancellation():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    sim.cancel(ev)
    sim.run()
    assert fired == ["kept"]


def test_events_processed_counts():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_run_is_not_reentrant():
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()
        seen.append(True)

    sim.schedule(0.0, reenter)
    sim.run()
    assert seen == [True]
