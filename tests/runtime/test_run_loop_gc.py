"""The run loop's collector policy (DESIGN.md §9.2, "The collector"):
both backends' loops run under the raised thresholds, and the caller's
thresholds come back on every way out of a run."""

import gc

import pytest

from repro import run_spmd
from repro.explore.schedule import DefaultSource
from repro.runtime.program import DeadlockError
from repro.sim.engine import _RUN_GC_THRESHOLD, SimulationError

#: a caller's own setting, unlike both the default and the run policy
CALLER = (1234, 5, 6)


@pytest.fixture(autouse=True)
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield
    gc.set_threshold(*saved)


def thresholds_kernel(img):
    yield from img.compute(1e-6)
    return gc.get_threshold()


def _raises(img):
    yield from img.compute(1e-6)
    raise ValueError("kernel bug")


def _deadlocks(img):
    if img.rank == 0:
        ev = img.machine.make_event(name="never")
        yield from img.event_wait(ev)
    yield from img.barrier()


def _long(img):
    for _ in range(100):
        yield from img.compute(1e-6)


def test_a_run_sees_the_policy_and_restores_the_callers():
    _m, seen = run_spmd(thresholds_kernel, 2)
    assert seen == [_RUN_GC_THRESHOLD] * 2
    assert gc.get_threshold() == CALLER


def test_a_schedule_controlled_run_restores_the_callers():
    _m, seen = run_spmd(thresholds_kernel, 2, schedule=DefaultSource())
    assert seen == [_RUN_GC_THRESHOLD] * 2
    assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("kernel, kwargs, error", [
    (_raises, {}, ValueError),
    (_deadlocks, {}, DeadlockError),
    (_long, {"max_events": 10}, SimulationError),
], ids=["kernel-raises", "deadlock", "max-events"])
def test_a_failed_run_restores_the_callers(kernel, kwargs, error):
    with pytest.raises(error):
        run_spmd(kernel, 2, **kwargs)
    assert gc.get_threshold() == CALLER


def test_process_workers_run_under_the_policy():
    _run, seen = run_spmd(thresholds_kernel, 2, backend="process")
    assert seen == [_RUN_GC_THRESHOLD] * 2
    assert gc.get_threshold() == CALLER
