"""Unit tests for the cooperative-task layer."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.tasks import (
    Condition,
    Delay,
    Future,
    Semaphore,
    Task,
    TaskFailed,
    all_of,
    any_of,
)


# --------------------------------------------------------------------- #
# Future
# --------------------------------------------------------------------- #

class TestFuture:
    def test_result_roundtrip(self):
        f = Future("x")
        f.set_result(42)
        assert f.done
        assert f.result() == 42
        assert f.exception() is None

    def test_exception_roundtrip(self):
        f = Future()
        f.set_exception(ValueError("boom"))
        assert f.done
        with pytest.raises(ValueError):
            f.result()

    def test_double_resolution_rejected(self):
        f = Future()
        f.set_result(1)
        with pytest.raises(Exception, match="twice"):
            f.set_result(2)

    def test_result_before_resolution_rejected(self):
        f = Future()
        with pytest.raises(Exception, match="not resolved"):
            f.result()

    def test_callback_after_resolution_fires_immediately(self):
        f = Future()
        f.set_result("v")
        got = []
        f.add_done_callback(lambda fut: got.append(fut.result()))
        assert got == ["v"]

    def test_callbacks_fire_in_registration_order(self):
        f = Future()
        got = []
        f.add_done_callback(lambda _: got.append(1))
        f.add_done_callback(lambda _: got.append(2))
        f.set_result(None)
        assert got == [1, 2]


class TestCombinators:
    def test_all_of_collects_in_order(self):
        a, b = Future(), Future()
        combined = all_of([a, b])
        b.set_result("B")
        assert not combined.done
        a.set_result("A")
        assert combined.result() == ["A", "B"]

    def test_all_of_empty_resolves_immediately(self):
        assert all_of([]).result() == []

    def test_all_of_propagates_exception(self):
        a, b = Future(), Future()
        combined = all_of([a, b])
        a.set_exception(RuntimeError("x"))
        with pytest.raises(RuntimeError):
            combined.result()

    def test_any_of_returns_first(self):
        a, b = Future(), Future()
        combined = any_of([a, b])
        b.set_result("B")
        assert combined.result() == (1, "B")
        a.set_result("A")  # late resolution is harmless
        assert combined.result() == (1, "B")

    def test_any_of_empty_rejected(self):
        with pytest.raises(Exception):
            any_of([])


# --------------------------------------------------------------------- #
# Task
# --------------------------------------------------------------------- #

class TestTask:
    def test_delay_advances_clock(self):
        sim = Simulator()
        trace = []

        def gen():
            trace.append(sim.now)
            yield Delay(2.5)
            trace.append(sim.now)

        t = Task(sim, gen())
        sim.run()
        assert trace == [0.0, 2.5]
        assert t.done_future.done

    def test_return_value_through_done_future(self):
        sim = Simulator()

        def gen():
            yield Delay(1.0)
            return "answer"

        t = Task(sim, gen())
        sim.run()
        assert t.done_future.result() == "answer"

    def test_blocking_on_future(self):
        sim = Simulator()
        gate = Future()
        trace = []

        def waiter():
            value = yield gate
            trace.append((sim.now, value))

        Task(sim, waiter())
        sim.schedule(3.0, gate.set_result, "go")
        sim.run()
        assert trace == [(3.0, "go")]

    def test_exception_from_future_raised_in_task(self):
        sim = Simulator()
        gate = Future()
        caught = []

        def waiter():
            try:
                yield gate
            except ValueError as e:
                caught.append(str(e))

        Task(sim, waiter())
        sim.schedule(1.0, gate.set_exception, ValueError("bad"))
        sim.run()
        assert caught == ["bad"]

    def test_escaping_exception_wrapped_in_task_failed(self):
        sim = Simulator()

        def gen():
            yield Delay(0.0)
            raise RuntimeError("kaboom")

        t = Task(sim, gen(), name="bad-task")
        sim.run()
        with pytest.raises(TaskFailed, match="bad-task"):
            t.done_future.result()

    def test_yield_from_subroutine(self):
        sim = Simulator()

        def sub():
            yield Delay(1.0)
            return 10

        def main():
            a = yield from sub()
            b = yield from sub()
            return a + b

        t = Task(sim, main())
        sim.run()
        assert t.done_future.result() == 20
        assert sim.now == 2.0

    def test_bad_directive_is_an_error(self):
        sim = Simulator()

        def gen():
            yield "not a directive"

        t = Task(sim, gen())
        sim.run()
        with pytest.raises(TaskFailed):
            t.done_future.result()

    def test_non_generator_rejected_eagerly(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="generator"):
            Task(sim, lambda: None)

    def test_two_tasks_interleave_deterministically(self):
        sim = Simulator()
        trace = []

        def worker(tag, dt):
            for _ in range(3):
                yield Delay(dt)
                trace.append((tag, sim.now))

        Task(sim, worker("a", 1.0))
        Task(sim, worker("b", 1.5))
        sim.run()
        # At t=3.0 both tasks resume; b's resume event was scheduled at
        # t=1.5 (before a's at t=2.0), so b fires first.
        assert trace == [
            ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
            ("a", 3.0), ("b", 4.5),
        ]


# --------------------------------------------------------------------- #
# Semaphore / Condition
# --------------------------------------------------------------------- #

class TestSemaphore:
    def test_counts(self):
        sim = Simulator()
        s = Semaphore(sim, 2)
        assert s.try_acquire()
        assert s.try_acquire()
        assert not s.try_acquire()
        s.release()
        assert s.available == 1

    def test_blocking_acquire(self):
        sim = Simulator()
        s = Semaphore(sim, 0)
        trace = []

        def worker():
            yield from s.acquire()
            trace.append(sim.now)

        Task(sim, worker())
        sim.schedule(4.0, s.release)
        sim.run()
        assert trace == [4.0]

    def test_release_wakes_fifo(self):
        sim = Simulator()
        s = Semaphore(sim, 0)
        trace = []

        def worker(tag):
            yield from s.acquire()
            trace.append(tag)

        Task(sim, worker("a"))
        Task(sim, worker("b"))
        sim.schedule(1.0, s.release)
        sim.schedule(2.0, s.release)
        sim.run()
        assert trace == ["a", "b"]

    def test_negative_count_rejected(self):
        with pytest.raises(Exception):
            Semaphore(Simulator(), -1)


class TestCondition:
    def test_wake_resolves_a_single_waiter(self):
        sim = Simulator()
        cond = Condition(sim)
        state = {"ready": False}
        trace = []

        def waiter():
            yield from cond.wait_until(lambda: state["ready"])
            trace.append(sim.now)

        def ready():
            state["ready"] = True
            cond.wake()

        Task(sim, waiter())
        sim.schedule(1.0, cond.wake)
        sim.schedule(2.0, ready)
        sim.run()
        assert trace == [2.0]
        assert cond.waiting == 0

    def test_raising_predicate_stays_queued(self):
        sim = Simulator()
        cond = Condition(sim)
        state = {"mode": "wait"}
        trace = []

        def pred():
            if state["mode"] == "raise":
                raise RuntimeError("predicate failed")
            return state["mode"] == "go"

        def waiter():
            yield from cond.wait_until(pred)
            trace.append(sim.now)

        Task(sim, waiter())
        sim.run()
        state["mode"] = "raise"
        with pytest.raises(RuntimeError, match="predicate failed"):
            cond.wake()
        assert cond.waiting == 1 and trace == []
        state["mode"] = "go"
        cond.wake()
        sim.run()
        assert trace == [0.0]
        assert cond.waiting == 0

    def test_wake_resolves_two_waiters_in_order(self):
        sim = Simulator()
        cond = Condition(sim)
        state = {"go": False}
        trace = []

        def waiter(name):
            yield from cond.wait_until(lambda: state["go"])
            trace.append(name)

        Task(sim, waiter("first"))
        Task(sim, waiter("second"))

        def go():
            state["go"] = True
            cond.wake()

        sim.schedule(1.0, go)
        sim.run()
        assert trace == ["first", "second"]
        assert cond.waiting == 0

    def test_wait_until_already_true_does_not_block(self):
        sim = Simulator()
        cond = Condition(sim)
        trace = []

        def t():
            yield from cond.wait_until(lambda: True)
            trace.append(sim.now)

        Task(sim, t())
        sim.run()
        assert trace == [0.0]

    def test_wake_reevaluates_predicates(self):
        sim = Simulator()
        cond = Condition(sim)
        state = {"n": 0}
        trace = []

        def waiter():
            yield from cond.wait_until(lambda: state["n"] >= 2)
            trace.append(sim.now)

        def bump():
            state["n"] += 1
            cond.wake()

        Task(sim, waiter())
        sim.schedule(1.0, bump)
        sim.schedule(2.0, bump)
        sim.run()
        assert trace == [2.0]

    def test_selective_wake(self):
        sim = Simulator()
        cond = Condition(sim)
        state = {"a": False, "b": False}
        trace = []

        def waiter(key):
            yield from cond.wait_until(lambda: state[key])
            trace.append(key)

        Task(sim, waiter("a"))
        Task(sim, waiter("b"))

        def set_key(key):
            state[key] = True
            cond.wake()

        sim.schedule(1.0, set_key, "b")
        sim.schedule(2.0, set_key, "a")
        sim.run()
        assert trace == ["b", "a"]
