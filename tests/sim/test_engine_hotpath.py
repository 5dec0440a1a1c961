"""Regression tests for the hot-path event queue (DESIGN.md §9).

The engine keeps events in three structures (staging slot, ready deque,
heap) plus a lazy-cancellation side channel.  These tests pin the
observable contract those optimizations must preserve: exact O(1)
``pending_events`` accounting, (time, seq) firing order across all
structure transitions, and cancel being safe at any point in an entry's
life cycle.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.tasks import Delay, Future, Task, clock_point


class TestPendingEventsAccounting:
    def test_cancel_then_count_without_draining(self):
        # The O(1) pending_events satellite: cancelled entries stay in the
        # queue (lazy deletion) but must not be counted.
        sim = Simulator()
        entries = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert sim.pending_events == 100
        for ev in entries[::2]:
            sim.cancel(ev)
        assert sim.pending_events == 50
        for ev in entries[::2]:
            sim.cancel(ev)  # double-cancel is a no-op
        assert sim.pending_events == 50
        sim.run()
        assert sim.pending_events == 0

    def test_staged_entry_cancel_counts(self):
        # A single future event parks in the staging slot; cancelling it
        # must remove it outright.
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.cancel(ev)
        assert sim.pending_events == 0
        sim.run()
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_cancel_after_fire_is_noop_for_every_structure(self):
        # Entries can fire from the staging slot, the ready deque, or the
        # heap; a late cancel of any of them must not corrupt the count.
        sim = Simulator()
        staged = sim.schedule(1.0, lambda: None)          # will fire staged
        sim.run()
        ready = sim.call_soon(lambda: None)               # will fire from ready
        heaped = sim.schedule(0.0, lambda: None)          # ready too
        far = sim.schedule(1.0, lambda: None)             # flushes into heap
        ok = sim.schedule(2.0, lambda: None)
        sim.run()
        for ev in (staged, ready, heaped, far, ok):
            sim.cancel(ev)
        assert sim.pending_events == 0
        live = sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.cancel(live)
        assert sim.pending_events == 0

    def test_counts_stay_exact_across_mixed_cancels_and_runs(self):
        sim = Simulator()
        fired = []
        keep = [sim.schedule(2.0, fired.append, i) for i in range(10)]
        drop = [sim.schedule(1.0, fired.append, -1) for _ in range(10)]
        for ev in drop:
            sim.cancel(ev)
        assert sim.pending_events == 10
        sim.run()
        assert fired == list(range(10))
        assert sim.pending_events == 0


class TestOrderingAcrossStructures:
    def test_zero_delay_seeded_chain_preserves_order(self):
        # A chain whose first link enters via the ready deque must behave
        # identically to one staged directly (the engine transitions
        # ready -> heap -> staging slot mid-run).
        sim = Simulator()
        fired = []

        def tick(i):
            fired.append((i, sim.now))
            if i < 5:
                sim.schedule(1.0, tick, i + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        assert fired == [(i, float(i)) for i in range(6)]

    def test_call_soon_during_staged_chain(self):
        sim = Simulator()
        fired = []

        def tick(i):
            fired.append(f"tick{i}")
            if i == 1:
                sim.call_soon(fired.append, "soon")
            if i < 3:
                sim.schedule(1.0, tick, i + 1)

        sim.schedule(1.0, tick, 0)
        sim.run()
        assert fired == ["tick0", "tick1", "soon", "tick2", "tick3"]

    def test_same_time_events_from_different_structures(self):
        # Three events at t=1.0 created through three different paths
        # must still fire in creation order.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")   # staged
        sim.schedule(1.0, fired.append, "b")   # flushes a, both heaped
        sim.schedule(1.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_step_walks_mixed_queue_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.call_soon(fired.append, "now1")
        sim.call_soon(fired.append, "now2")
        cancelled = sim.call_soon(fired.append, "never")
        sim.cancel(cancelled)
        sim.run()
        assert fired == ["now1", "now2", "late"]
        assert sim.events_processed == 3
        assert sim.pending_events == 0


class TestQuiescence:
    def test_empty_simulator_is_quiescent(self):
        assert Simulator().quiescent_at_now()

    def test_future_event_does_not_break_quiescence(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.quiescent_at_now()

    def test_due_event_breaks_quiescence(self):
        sim = Simulator()
        sim.call_soon(lambda: None)
        assert not sim.quiescent_at_now()

    def test_cancelled_due_event_restores_quiescence(self):
        sim = Simulator()
        seen = []

        def first():
            # `due` is now due at t=1.0
            seen.append(sim.quiescent_at_now())
            # the heap still holds the stale entry after this cancel;
            # quiescence must see through it
            sim.cancel(due)
            seen.append(sim.quiescent_at_now())

        sim.schedule(1.0, first)
        due = sim.schedule(1.0, lambda: None)  # force both into the heap
        sim.run()
        assert seen == [False, True]


class TestClockPoints:
    """A clock point answers and fires exactly as the eager event in its
    reserved ``(time, seq)`` slot would have (DESIGN.md §3.3)."""

    @staticmethod
    def point(sim, time):
        return clock_point((sim, time, sim.reserve(time)), "p")

    def test_listened_point_fires_in_its_ready_slot(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", p.done))
            p.add_done_callback(lambda _f: log.append("point"))

        sim.call_soon(first)
        p = self.point(sim, 0.0)
        sim.call_soon(lambda: log.append(("second", p.done)))
        sim.run()
        assert log == [("first", False), "point", ("second", True)]
        assert sim.events_processed == 3

    def test_staged_entry_at_the_same_instant_stays_ahead(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(("staged", p.done)))
        p = self.point(sim, 1.0)
        sim.schedule(1.0, lambda: log.append(("later", p.done)))
        sim.run()
        assert log == [("staged", False), ("later", True)]
        assert sim.events_processed == 2

    def test_synchronous_continuation_runs_after_the_point(self):
        sim = Simulator()
        seen = []
        resolved = Future()
        resolved.set_result(None)
        box = {}

        def body():
            yield Delay(1.0)
            seen.append(box["p"].done)
            yield resolved  # nothing else is due: continues at once
            seen.append(box["p"].done)

        Task(sim, body())
        sim.call_soon(lambda: box.setdefault("p", self.point(sim, 1.0)))
        sim.run()
        assert seen == [False, True]

    def test_drain_moves_the_clock_to_an_unfired_point(self):
        sim = Simulator()
        at_drain = []
        sim.add_drain_hook(lambda s: at_drain.append(s.now))
        sim.schedule(1.0, lambda: None)
        p = self.point(sim, 5.0)
        assert not p.done
        sim.run()
        assert at_drain == [5.0] and sim.now == 5.0 and p.done
        assert sim.events_processed == 1

    def test_points_are_events_under_a_schedule_source(self):
        sim = Simulator()
        sim.set_schedule_source(object())
        assert sim.reserve(1.0) == 0


def test_schedule_at_rejects_past_even_when_staged():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="past"):
        sim.schedule_at(4.0, lambda: None)
