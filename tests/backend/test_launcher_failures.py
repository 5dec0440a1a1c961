"""The one launcher fails cleanly (ROADMAP item 1, robustness half).

A run that goes wrong must end in a typed error at the caller — the
payload that cannot cross the wire, the application's own exception
(on either backend, noted with the failing task), or the coordinator's
timeout carrying what it did collect — and leave nothing behind: no
live worker process, no extra coordinator thread.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import run_spmd
from repro.backend.parallel import ParallelTimeoutError, ProcessRunner
from repro.backend.wire import WireError
from repro.core.finish import FinishUsageError

pytestmark = pytest.mark.parallel


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


def _key_error_on_rank_0_while_rank_1_waits(img):
    if img.rank == 0:
        yield from img.compute(1e-6)
        raise KeyError("missing on rank 0")
    yield from img.barrier()
    return img.rank


def _raises(img):
    raise ValueError("lost with its finish")
    yield  # pragma: no cover - makes this a shipped generator


def _returns_inside_finish(img):
    yield from img.finish_begin()
    yield from img.spawn(_raises, 1 - img.rank)
    return 0


def _never_returns(img):
    while True:
        yield from img.compute(0.01)


def _rank(img):
    yield from img.compute(1e-6)
    return img.rank


def _rank_1_computes_nan(img):
    yield from img.compute(1e-6)
    if img.rank == 1:
        yield from img.compute(float("nan"))
    return img.rank


def _rank_0_returns_rank_1_never(img):
    if img.rank == 0:
        return 0
    yield from _never_returns(img)


def test_unpicklable_shipped_argument_is_a_wire_error(leaves_nothing_behind):
    with pytest.raises(WireError, match="cannot cross a process boundary"):
        run_spmd(_ships_a_lambda, 2, backend="process")


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_application_exception_keeps_its_type(backend, leaves_nothing_behind):
    with pytest.raises(KeyError, match="(?s)missing on rank 1.*main@1"):
        run_spmd(_key_error_on_rank_1, 2, backend=backend)


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_non_finite_compute_time_is_refused(backend, leaves_nothing_behind):
    """A NaN used to run as no time and book NaN busy seconds on the
    simulator, and to reach the conduit's ``select`` on processes."""
    with pytest.raises(ValueError, match=(
            r"(?s)compute time must be finite and non-negative, got nan"
            r".*main@1")):
        run_spmd(_rank_1_computes_nan, 2, backend=backend)


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_main_returning_inside_finish_is_a_usage_error(backend,
                                                       leaves_nothing_behind):
    """The block never ends, so the error of the function shipped in it
    would be lost with it: the run fails instead of returning [0, 0]."""
    with pytest.raises(FinishUsageError, match=(
            r"(?s)image (\d): main program returned inside 1 open finish "
            r"block.*main@\1")):
        run_spmd(_returns_inside_finish, 2, backend=backend)


def test_first_error_ends_the_run_at_once(leaves_nothing_behind):
    """Rank 1 waits at a barrier rank 0 will never reach: the run ends
    with rank 0's error as soon as it is reported, not at the timeout."""
    runner = ProcessRunner(_key_error_on_rank_0_while_rank_1_waits,
                           2).start()
    began = time.monotonic()
    with pytest.raises(KeyError, match="(?s)missing on rank 0.*main@0"):
        runner.wait(timeout=20)
    assert time.monotonic() - began < 10


def test_hung_kernel_times_out_with_the_partial_run(leaves_nothing_behind):
    runner = ProcessRunner(_never_returns, 2).start()
    with pytest.raises(ParallelTimeoutError) as caught:
        runner.wait(timeout=2)
    partial = caught.value.partial
    assert partial is not None
    assert partial.results == [None, None]


def test_worker_killed_during_shutdown(leaves_nothing_behind):
    """Every rank has reported when the coordinator starts shutting the
    fleet down; a worker SIGKILLed then changes nothing the caller sees:
    ``wait`` returns the reported results and reaps every worker."""
    runner = ProcessRunner(_rank, 2).start()
    shutdown = runner._shutdown

    def shutdown_after_a_kill(run):
        runner.kill_worker(1)
        shutdown(run)

    runner._shutdown = shutdown_after_a_kill
    run = runner.wait(timeout=20)
    assert run.results == [0, 1]
    assert run.dead_images == set()
    assert runner._procs[1].exitcode == -signal.SIGKILL


def test_worker_exits_when_its_control_pipe_closes(leaves_nothing_behind):
    """The coordinator holds every pipe end for the length of the run, so
    end-of-file on a worker's control pipe means the coordinator is gone:
    the worker's loop ends — its main program still running — and the
    process exits by itself."""
    runner = ProcessRunner(_rank_0_returns_rank_1_never, 2).start()
    control = runner._pipes[runner.n_images]
    for end in control[1]:  # the worker keeps its own read end
        os.close(end)
    control[1] = os.pipe()  # what the coordinator closes at the end
    worker = runner._procs[1]
    worker.join(timeout=10)
    assert worker.exitcode == 0
    run = runner.wait(timeout=20)
    assert run.results == [0, None]
    assert run.dead_images == {1}
