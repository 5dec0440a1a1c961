"""The owned-task registry behind fail-stop crashes: it holds O(live
tasks) — not every shipped function a run ever executed — and a crash
still halts a shipped function that is running, and leaves nothing of it
scheduled or cyclic behind."""

from repro import run_spmd
from repro.apps.uts import TreeParams, UTSConfig, uts_kernel
from repro.sim.engine import Simulator
from repro.sim.tasks import Future, Task

#: (event, image) records of the shipped functions below
LOG = []


def _quick(img):
    yield from img.compute(1e-7)


def _long(img):
    LOG.append(("start", img.rank))
    yield from img.compute(1e-3)
    LOG.append(("end", img.rank))


def test_registry_stays_bounded_over_a_64_image_uts_run():
    n = 64
    config = UTSConfig(tree=TreeParams(b0=4, max_depth=7, seed=19))
    machine, _ = run_spmd(uts_kernel, n, args=(config,))
    executed = machine.stats["spawn.executed"]
    assert executed > 10_000
    # every shipped function ran as an owned task; the registry keeps
    # no more than a sweep interval of them
    assert len(machine.sim._tasks) <= 4 * n < executed // 10


def test_crash_halts_a_live_shipped_function_after_sweeps():
    del LOG[:]
    killed = []

    def kernel(img):
        if img.rank == 0:
            for _ in range(200):                 # > several sweeps' worth
                yield from img.spawn(_quick, 1)
            yield from img.compute(1e-4)         # all 200 have finished
            yield from img.spawn(_long, 1)
            yield from img.compute(1e-4)         # _long is mid-body
            killed.append(img.machine.sim.kill_owner(1))
            yield from img.compute(2e-3)
        return img.rank

    machine, _ = run_spmd(kernel, 2)
    assert machine.stats["spawn.executed"] == 201
    assert LOG == [("start", 1)]                 # never reached "end"
    # only the running _long: image 1's main program and the 200
    # finished shipped functions are done, not killed
    assert killed == [1]
    assert len(machine.sim._tasks) < 200


def _blocked_on(fut, steps):
    steps.append("blocked")
    value = yield fut
    steps.append(("resumed", value))


def test_a_killed_task_ignores_the_future_it_was_blocked_on(cyclic_garbage):
    steps = []

    def work():
        sim = Simulator()
        fut = Future("never-before-the-crash")
        Task(sim, _blocked_on(fut, steps), owner=3)
        sim.run()                                # drains, the task blocked
        assert steps == ["blocked"]
        assert sim.kill_owner(3) == 1
        fut.set_result(42)
        assert sim.pending_events == 0           # nothing scheduled for it
        sim.run()
        assert sim.pending_events == 0
        return sim

    assert cyclic_garbage(work) == []
    assert steps == ["blocked"]


def test_a_resume_queued_before_the_kill_no_ops(cyclic_garbage):
    steps = []

    def work():
        sim = Simulator()
        fut = Future("resolved-before-the-crash")
        Task(sim, _blocked_on(fut, steps), owner=3)
        sim.run()
        fut.set_result(42)                       # queues the resume
        assert sim.pending_events == 1
        assert sim.kill_owner(3) == 1
        sim.run()                                # fires it: a no-op
        assert sim.pending_events == 0
        return sim

    assert cyclic_garbage(work) == []
    assert steps == ["blocked"]
