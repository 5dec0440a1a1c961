"""Unit tests for credit-based flow control."""

import pytest

from repro import MachineParams, run_spmd
from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Task
from repro.net.flowcontrol import STALL_PENALTY, CreditManager


class TestCreditManager:
    def test_acquire_without_contention_is_immediate(self):
        sim = Simulator()
        cm = CreditManager(sim, credits=2)
        done = []

        def t():
            yield from cm.acquire(0)
            yield from cm.acquire(0)
            done.append(sim.now)

        Task(sim, t())
        sim.run()
        assert done == [0.0]
        assert cm.outstanding(0) == 2

    def test_destinations_of_one_source_share_a_pool(self):
        """GASNet node tokens: a message to a second destination waits
        for the credit a message to the first one holds, while another
        source's pool is untouched."""
        sim = Simulator()
        cm = CreditManager(sim, credits=1)
        trace = []

        def t():
            # AMLayer.request acquires for a src -> dst message; the
            # pool is keyed by src alone.
            yield from cm.acquire(0)      # 0 -> 1
            yield from cm.acquire(1)      # 1 -> 2: another source
            trace.append(("other source", sim.now))
            yield from cm.acquire(0)      # 0 -> 2: waits for 0 -> 1
            trace.append(("second destination", sim.now))

        Task(sim, t())
        sim.schedule(5.0, cm.release, 0)
        sim.run()
        assert trace == [("other source", 0.0),
                         ("second destination", 5.0 + STALL_PENALTY)]
        assert cm.stats["flow.stalls"] == 1

    def test_exhaustion_blocks_until_release(self):
        sim = Simulator()
        cm = CreditManager(sim, credits=1)
        trace = []

        def t():
            yield from cm.acquire(0)
            trace.append(("first", sim.now))
            yield from cm.acquire(0)
            trace.append(("second", sim.now))

        Task(sim, t())
        sim.schedule(5.0, cm.release, 0)
        sim.run()
        # release time + a run of one stall x the penalty
        assert trace == [("first", 0.0), ("second", 5.0 + 1 * STALL_PENALTY)]

    def test_stall_penalty_charged_on_block(self):
        sim = Simulator()
        cm = CreditManager(sim, credits=1)
        trace = []

        def t():
            yield from cm.acquire(0)
            yield from cm.acquire(0)
            trace.append(sim.now)
            # the pool never drained back to capacity: the run goes on
            yield from cm.acquire(0)
            trace.append(sim.now)

        Task(sim, t())
        sim.schedule(5.0, cm.release, 0)
        sim.schedule(10.0, cm.release, 0)
        sim.run()
        # release time + run length x the penalty
        assert trace == [5.0 + 1 * STALL_PENALTY, 10.0 + 2 * STALL_PENALTY]
        assert cm.stats["flow.stalls"] == 2

    def test_no_stall_counted_when_credits_available(self):
        sim = Simulator()
        cm = CreditManager(sim, credits=3)

        def t():
            yield from cm.acquire(0)
            yield Delay(0)

        Task(sim, t())
        sim.run()
        assert cm.stats["flow.stalls"] == 0

    def test_release_before_acquire_adds_credit(self):
        sim = Simulator()
        cm = CreditManager(sim, credits=1)
        cm.release(0)
        assert cm.outstanding(0) == -1  # pool grew past initial size

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CreditManager(sim, credits=0)


def _shipped(img):
    yield from img.compute(1e-7)


class TestSpawnUnderCredits:
    """``spawn`` takes the credit-aware AM request when credits are on."""

    def test_second_spawn_waits_for_the_first_ones_ack(self):
        times = {}

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                sim = img.machine.sim
                first = yield from img.spawn(_shipped, 1)
                times["first"] = sim.now
                first.local_op.add_done_callback(
                    lambda _f: times.setdefault("ack", sim.now))
                yield from img.spawn(_shipped, 1)
                times["second"] = sim.now
            yield from img.finish_end()

        params = MachineParams.uniform(2, flow_credits=1)
        machine, _ = run_spmd(kernel, 2, params=params)
        assert machine.stats["spawn.executed"] == 2
        assert machine.stats["flow.stalls"] == 1
        # the one credit came back with the first spawn's delivery ack
        assert times["first"] < times["ack"] <= times["second"]
        assert machine.credits.outstanding(0) == 0

    def test_no_stall_with_a_credit_per_spawn(self):
        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_shipped, 1)
                yield from img.spawn(_shipped, 1)
            yield from img.finish_end()

        params = MachineParams.uniform(2, flow_credits=2)
        machine, _ = run_spmd(kernel, 2, params=params)
        assert machine.stats["spawn.executed"] == 2
        assert machine.stats["flow.stalls"] == 0
