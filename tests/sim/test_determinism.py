"""Determinism regression tests for the overhauled hot path.

The event-queue, task-layer and wire-path optimizations (staging slot,
ready deque, synchronous continuations, block jitter draws) are only
admissible if they are *invisible*: the same program must produce
bit-for-bit the same simulated execution — same stats, same final virtual
time, same trace — run after run in one process, and with the race
detector on or off.

These tests run the two paper kernels (UTS and RandomAccess) end to end
and fingerprint each run.
"""

import hashlib
import json

import numpy as np

from repro.apps.randomaccess import RAConfig, ra_kernel
from repro.apps.uts import TreeParams, UTSConfig, uts_kernel
from repro.runtime.program import Machine, run_spmd
from repro.sim.chrometrace import ChromeTracer
from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Task

IMAGES = 4


def _trace_hash(tracer):
    blob = json.dumps(tracer._events, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _fingerprint(machine, results):
    fp = {
        "stats": machine.stats.as_dict(),
        "sim_time": machine.sim.now.hex(),  # hex: exact, not repr-rounded
        "results": repr(results),
        "trace": _trace_hash(machine.tracer),
    }
    if machine.racecheck is not None:
        fp["races"] = [repr(r) for r in machine.racecheck.races]
    return fp


def _run_uts(racecheck):
    machine = Machine(IMAGES, seed=0, tracer=ChromeTracer(),
                      racecheck=racecheck)
    machine.launch(uts_kernel,
                   args=(UTSConfig(tree=TreeParams(b0=4, max_depth=5,
                                                   seed=19)),))
    results = machine.run()
    return _fingerprint(machine, results)


def _run_ra(racecheck):
    config = RAConfig(log2_local_table=7, updates_per_image=24)
    local_size = 2 ** config.log2_local_table
    machine = Machine(IMAGES, seed=0, tracer=ChromeTracer(),
                      racecheck=racecheck)
    machine.coarray("ra_table", shape=local_size, dtype=np.uint64)
    table = machine.coarray_by_name("ra_table")
    for r in range(IMAGES):
        table.local_at(r)[:] = np.arange(r * local_size,
                                         (r + 1) * local_size,
                                         dtype=np.uint64)
    machine.launch(ra_kernel, args=(config,))
    results = machine.run()
    fp = _fingerprint(machine, results)
    checksum = 0
    for r in range(IMAGES):
        checksum ^= int(np.bitwise_xor.reduce(table.local_at(r)))
    fp["checksum"] = checksum
    return fp


def _strip_races(fp):
    return {k: v for k, v in fp.items() if k != "races"}


class TestUTSDeterminism:
    def test_back_to_back_runs_identical(self):
        assert _run_uts(False) == _run_uts(False)

    def test_racecheck_does_not_perturb_execution(self):
        plain = _run_uts(False)
        checked = _run_uts(True)
        assert checked["races"] == []
        assert _strip_races(checked) == _strip_races(plain)


class TestRandomAccessDeterminism:
    def test_back_to_back_runs_identical(self):
        assert _run_ra(False) == _run_ra(False)

    def test_racecheck_does_not_perturb_execution(self):
        plain = _run_ra(False)
        checked = _run_ra(True)
        assert checked["races"] == []
        assert _strip_races(checked) == _strip_races(plain)


class TestTaskIdReproducibility:
    def test_task_ids_restart_per_simulator(self):
        # Task ids are allocated by the owning Simulator (not a class
        # attribute), so back-to-back simulations in one process name
        # their tasks identically.
        def run_once():
            sim = Simulator()

            def worker():
                yield Delay(0.0)

            tasks = [Task(sim, worker()) for _ in range(5)]
            sim.run()
            return [t.tid for t in tasks]

        first = run_once()
        assert first == [1, 2, 3, 4, 5]
        assert run_once() == first

    def test_machine_level_names_reproduce(self):
        # The end-to-end version of the same property: a whole machine
        # run (task ids feed trace labels and finish bookkeeping) must
        # fingerprint identically when repeated — covered above — and a
        # *fresh* machine must start its id streams from scratch.
        sim_a, sim_b = Simulator(), Simulator()

        def worker():
            yield Delay(0.0)

        ta = Task(sim_a, worker())
        tb = Task(sim_b, worker())
        assert ta.tid == tb.tid == 1

    def test_ids_in_am_arguments_restart_per_machine(self):
        # A get's token and an anonymous event's name travel in AM
        # arguments; drawn from the machine, two identical runs in one
        # process send identical values.
        def kernel(img):
            if img.rank == 0:
                source = img.machine.coarray_by_name("A").ref(1)
                yield from img.wait_all([img.copy_async(np.zeros(1), source)])

        def run_once():
            sent = []

            def setup(machine):
                machine.coarray("A", (1,))
                sent.append(machine.make_event().name)
                request_nb = machine.am.request_nb

                def spy(src, dst, handler, args=(), **kwargs):
                    if handler == "copy.get_req":
                        sent.append(args[1])
                    return request_nb(src, dst, handler, args=args, **kwargs)

                machine.am.request_nb = spy

            run_spmd(kernel, 2, setup=setup)
            return sent

        first = run_once()
        assert len(first) == 2
        assert run_once() == first
