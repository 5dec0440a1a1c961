"""The owned-task registry behind fail-stop crashes: it holds O(live
tasks) — not every shipped function a run ever executed — and a crash
still halts a shipped function that is running."""

from repro import run_spmd
from repro.apps.uts import TreeParams, UTSConfig, uts_kernel

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
