"""The one launcher fails cleanly (ROADMAP item 1, robustness half).

A run that goes wrong must end in a typed error at the caller — the
payload that cannot cross the wire, the application's own exception
(on either backend, noted with the failing task), or the coordinator's
timeout carrying what it did collect — and leave nothing behind: no
live worker process, no extra coordinator thread.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro import run_spmd
from repro.backend.parallel import ParallelTimeoutError, ProcessRunner
from repro.backend.wire import WireError

pytestmark = pytest.mark.parallel


@pytest.fixture
def leaves_nothing_behind():
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def _remote(img, fn):
    yield from img.compute(1e-6)


def _ships_a_lambda(img):
    if img.rank == 0:
        yield from img.spawn(_remote, 1, lambda: 0)
    return img.rank


def _key_error_on_rank_1(img):
    yield from img.barrier()
    if img.rank == 1:
        raise KeyError("missing on rank 1")
    return img.rank


def _never_returns(img):
    while True:
        yield from img.compute(0.01)


def test_unpicklable_shipped_argument_is_a_wire_error(leaves_nothing_behind):
    with pytest.raises(WireError, match="cannot cross a process boundary"):
        run_spmd(_ships_a_lambda, 2, backend="process")


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_application_exception_keeps_its_type(backend, leaves_nothing_behind):
    with pytest.raises(KeyError, match="(?s)missing on rank 1.*main@1"):
        run_spmd(_key_error_on_rank_1, 2, backend=backend)


def test_hung_kernel_times_out_with_the_partial_run(leaves_nothing_behind):
    runner = ProcessRunner(_never_returns, 2).start()
    with pytest.raises(ParallelTimeoutError) as caught:
        runner.wait(timeout=2)
    partial = caught.value.partial
    assert partial is not None
    assert partial.results == [None, None]
