"""Shared test helpers."""

import gc

import pytest

from repro import MachineParams, run_spmd


@pytest.fixture
def cyclic_garbage():
    """Run ``work()`` with the collector off and return the type names of
    the cyclic garbage it left.  What ``work`` returns stays referenced
    while the collector looks, so only unreachable cycles count."""

    def _run(work):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            kept = work()  # noqa: F841 - held across the collection
            gc.collect()
            return sorted(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.garbage.clear()
            gc.set_debug(0)
            if was_enabled:
                gc.enable()

    return _run


@pytest.fixture
def spmd():
    """Run a kernel SPMD and return (machine, results)."""

    def _run(kernel, n=4, setup=None, params=None, seed=0, args=(),
             max_events=2_000_000, racecheck=False):
        return run_spmd(kernel, n_images=n, setup=setup, params=params,
                        seed=seed, args=args, max_events=max_events,
                        racecheck=racecheck)

    return _run


@pytest.fixture
def fast_params():
    """Small uniform machine parameters for latency-sensitive assertions."""

    def _make(n, **kwargs):
        defaults = dict(wire_latency=1e-6, bandwidth=1e9,
                        o_send=1e-7, o_recv=1e-7)
        defaults.update(kwargs)
        return MachineParams.uniform(n, **defaults)

    return _make
