"""No numpy scalar reaches the event queue.

Simulated times are plain Python floats end to end: a ``np.float64``
that slips into one event time (historically through an ``np.int64``
message size) propagates silently into every time computed from it and
makes the whole run pay numpy-scalar arithmetic.
"""

import numpy as np

from repro import MachineParams, run_spmd
from repro.net.active_messages import AMCategory
from repro.sim.engine import Simulator


def _remote_work(img):
    yield from img.compute(1e-7)


def _kernel(img):
    T = img.machine.coarray_by_name("T")
    right = (img.rank + 1) % img.nimages
    yield from img.finish_begin()
    yield from img.spawn(_remote_work, right)
    put = img.copy_async(T.ref(right, slice(0, 4)), np.full(4, img.rank + 1.0))
    into = np.zeros(4)
    get = img.copy_async(into, T.ref(right, slice(4, 8)))
    yield from img.cofence()
    yield put.global_done
    yield get.global_done
    # a caller-computed byte count, the way a numpy shape product gives it
    img.machine.am.request_nb(img.rank, right, "test.sink",
                              payload_size=np.prod((8, 8)) * np.int64(8),
                              category=AMCategory.LONG, want_ack=True)
    yield from img.finish_end()
    total = yield from img.allreduce(img.rank)
    yield from img.barrier()
    return total


def _setup(machine):
    machine.coarray("T", shape=8, dtype=np.float64)
    machine.am.register("test.sink", lambda ctx: None)


def test_every_scheduled_time_is_a_plain_float(monkeypatch):
    # Events and clock points (reserved slots) alike.
    times = []
    schedule_at = Simulator.schedule_at
    reserve = Simulator.reserve

    def recording_schedule_at(sim, time, fn, *args):
        times.append(time)
        return schedule_at(sim, time, fn, *args)

    def recording_reserve(sim, time):
        times.append(time)
        return reserve(sim, time)

    monkeypatch.setattr(Simulator, "schedule_at", recording_schedule_at)
    monkeypatch.setattr(Simulator, "reserve", recording_reserve)
    n = 4
    machine, results = run_spmd(
        _kernel, n_images=n, setup=_setup, seed=3,
        params=MachineParams.uniform(n, jitter=0.05))
    assert results == [sum(range(n))] * n
    assert len(times) > 10 * n
    assert {type(t) for t in times} == {float}
    assert type(machine.sim.now) is float
    for image in range(n):
        assert type(machine.network.nic_busy_until(image)) is float
        assert machine.network.nic_busy_until(image) > 0.0
