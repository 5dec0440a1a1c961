"""The process backend's conduit, driven where it is assembled.

Two :class:`_Conduit`\\ s over real ``os.pipe()``\\ s in one process — the
ends a forked worker would own — with ``progress`` called by hand, so
framing, batching, back-pressure and ack ordering are checked without a
fork (DESIGN.md §14.5).  The two tests that need real workers are
marked ``parallel``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend.parallel import ProcessRunner, _Conduit, _record
from repro.backend.realtime import RealtimeScheduler
from repro.backend.transport import ProcessTransport
from repro.net.topology import MachineParams
from repro.net.transport import Message
from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Task
from repro.sim.trace import Stats


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail, rather than hang the suite, if the body blocks."""
    def expired(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class End:
    """One conduit, the frames delivered to it, and its raw pipe ends."""

    def __init__(self, rank: int, reader: int, writer: int):
        self.conduit = _Conduit(rank, [reader], {1 - rank: writer})
        self.reader, self.writer = reader, writer
        self.got: list = []
        self.stopped: list = []
        self.conduit.deliver = self.got.append
        self.conduit.stop = lambda: self.stopped.append(True)


@pytest.fixture
def pair():
    """Ranks 0 and 1 joined the way ``ProcessRunner.start`` joins them:
    one non-blocking pipe each way."""
    fds = [*os.pipe(), *os.pipe()]
    for fd in fds:
        os.set_blocking(fd, False)
    r01, w01, r10, w10 = fds
    yield End(0, r10, w01), End(1, r01, w10)
    for fd in fds:
        os.close(fd)


# --------------------------------------------------------------------- #
# (a)-(c) framing: one record per destination per progress point
# --------------------------------------------------------------------- #

def test_frames_between_progress_points_travel_as_one_record(pair):
    a, b = pair
    for i in range(3):
        a.conduit.put(1, ("ack", 0, i))
    assert a.conduit.pending() == {1: (3, 0)}
    a.conduit.progress(0.0)
    assert (a.conduit.writes, a.conduit.frames) == (1, 3)
    assert a.conduit.pending() == {}
    # on the pipe: one length, then one pickled list
    raw = os.read(b.reader, 1 << 16)
    assert raw == _record([("ack", 0, i) for i in range(3)])
    # across several progress points, still in order
    for i in range(3, 9):
        a.conduit.put(1, ("ack", 0, i))
        if i % 2 == 0:
            a.conduit.progress(0.0)
    b.conduit.progress(0.0)
    assert b.got == [("ack", 0, i) for i in range(3, 9)]
    assert (a.conduit.writes, a.conduit.frames) == (4, 9)
    # nothing queued: a progress point writes nothing
    a.conduit.progress(0.0)
    assert a.conduit.writes == 4


def test_more_than_a_pipe_holds_in_both_directions_at_once(pair):
    """Neither side reads before both have written 4 MB: a blocking
    write would deadlock here.  The tails resume after EAGAIN."""
    a, b = pair
    big_a, big_b = os.urandom(4 << 20), os.urandom(4 << 20)
    a.conduit.put(1, ("ack", 0, big_a))
    b.conduit.put(0, ("ack", 1, big_b))
    with deadline(30):
        a.conduit.progress(0.0)
        b.conduit.progress(0.0)
        frames, tail = a.conduit.pending()[1]
        assert frames == 0 and 0 < tail < (4 << 20) + 64
        a.conduit.put(1, ("ack", 0, "behind the tail"))
        while len(a.got) < 1 or len(b.got) < 2:
            a.conduit.progress(0.0)
            b.conduit.progress(0.0)
    assert a.got == [("ack", 1, big_b)]
    assert b.got == [("ack", 0, big_a), ("ack", 0, "behind the tail")]
    assert a.conduit.pending() == b.conduit.pending() == {}


def test_parking_with_a_tail_wakes_when_the_pipe_drains(pair):
    """A refused tail's pipe is among what the park waits on."""
    a, b = pair
    a.conduit.put(1, ("ack", 0, bytes(1 << 20)))
    a.conduit.progress(0.0)
    assert a.conduit.pending()[1][1] > 0
    reader = threading.Timer(0.05, os.read, (b.reader, 1 << 16))
    reader.start()
    with deadline(30):
        a.conduit.progress(None)  # no timeout: only the pipe can end it
    reader.join()
    assert a.conduit.parked_s >= 0.04


def test_a_record_fed_one_byte_per_read_decodes_to_the_same_frames(pair):
    a, b = pair
    frames = [("am", 0, 7, True, b"\x00blob\xff"), ("ack", 0, 3)]
    record = _record(frames) + _record([("ack", 0, 4)])
    for i, byte in enumerate(record):
        os.write(a.writer, bytes([byte]))
        b.conduit.progress(0.0)
        if i < len(_record(frames)) - 1:
            assert b.got == []
    assert b.got == frames + [("ack", 0, 4)]


def test_shutdown_frame_and_end_of_file_both_stop_the_loop(pair):
    a, b = pair
    os.write(a.writer, _record([("ack", 0, 1), ("shutdown",)]))
    b.conduit.progress(0.0)
    assert b.got == [("ack", 0, 1)] and b.stopped == [True]
    # every writer gone (the coordinator holds them all): not a spin
    r, w = os.pipe()
    orphan = _Conduit(0, [r])
    orphan.stop = lambda: b.stopped.append("eof")
    os.close(w)
    orphan.progress(None)
    os.close(r)
    assert b.stopped == [True, "eof"]


# --------------------------------------------------------------------- #
# (d) acks: after the deliver callback, on the receiver's next record
# --------------------------------------------------------------------- #

def transports(pair):
    """A ``ProcessTransport`` on each end; ``seen`` logs, per delivered
    message, what the receiver had queued toward the sender when the
    deliver callback ran."""
    a, b = pair
    seen = []
    nets = []
    for end in (a, b):
        machine = SimpleNamespace(scratch={}, am=SimpleNamespace(
            _on_deliver=lambda msg, end=end: seen.append(
                (msg.payload, end.conduit.pending()))))
        net = ProcessTransport(Simulator(), MachineParams.uniform(2),
                               Stats(), end.conduit, machine)
        end.conduit.deliver = net.deliver_frame
        nets.append(net)
    return nets, seen


@pytest.mark.parametrize("batch", [1, 3])
def test_ack_follows_the_deliver_callback_and_resolves_delivered(pair, batch):
    a, b = pair
    (net_a, _net_b), seen = transports(pair)
    receipts = [net_a.send(Message(0, 1, 100, i), want_ack=True)
                for i in range(batch)]
    a.conduit.progress(0.0)
    assert a.conduit.writes == 1  # batched or not: one record
    b.conduit.progress(0.0)
    # every callback ran with no ack of its own queued yet ...
    assert seen == [(i, {0: (i, 0)} if i else {}) for i in range(batch)]
    # ... and the acks ride b's next record, not one write each
    assert b.conduit.pending() == {0: (batch, 0)}
    assert not any(r.delivered.done for r in receipts)
    b.conduit.progress(0.0)
    assert b.conduit.writes == 1
    a.conduit.progress(0.0)
    assert all(r.delivered.done and r.delivered.exception() is None
               for r in receipts)
    assert net_a.diagnostics()["unacked"] == []


def test_diagnostics_tell_a_wedged_pipe_from_a_silent_peer(pair):
    a, _b = pair
    (net_a, _net_b), _seen = transports(pair)
    net_a.send(Message(0, 1, 100, None), want_ack=True)
    assert net_a.diagnostics()["unacked"] == [
        "msg #0 0->1 (queued, not yet written)"]
    a.conduit.progress(0.0)
    assert net_a.diagnostics()["unacked"] == ["msg #0 0->1 (awaiting ack)"]


# --------------------------------------------------------------------- #
# (e)-(f) on the run loop
# --------------------------------------------------------------------- #

def test_deliver_error_propagates_out_of_progress_and_the_run_loop(pair):
    """The worker's structured-error path: ``_worker_main`` catches what
    ``run`` raises and reports it to the coordinator."""
    a, b = pair

    def broken(frame):
        raise LookupError(f"cannot dispatch {frame!r}")

    b.conduit.deliver = broken
    sched = RealtimeScheduler()
    sched.progress = b.conduit.progress
    a.conduit.put(1, ("ack", 0, 1))
    a.conduit.progress(0.0)
    with pytest.raises(LookupError, match="cannot dispatch"):
        with deadline(30):
            sched.run()


def test_park_keeps_sub_millisecond_timers(pair):
    """``poll``/``epoll`` round a 0.2 ms wait up to a whole millisecond;
    the park must not (DESIGN.md §14.5, pitfall 1)."""
    a, _b = pair
    sched = RealtimeScheduler()
    sched.progress = a.conduit.progress
    naps, dt = 200, 2e-4

    def napper():
        for _ in range(naps):
            yield Delay(dt)
        sched.stop()

    Task(sched, napper())
    t0 = time.perf_counter()
    sched.run()
    loop_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(naps):
        time.sleep(dt)
    sleep_s = time.perf_counter() - t0
    assert naps * dt <= loop_s < 2 * sleep_s
    assert a.conduit.parked_s <= loop_s


def test_a_progress_point_at_least_every_64_ready_events():
    sched = RealtimeScheduler()
    points = []
    sched.progress = lambda timeout: points.append(
        (sched.events_processed, timeout))
    for _ in range(150):
        sched.call_soon(lambda: None)
    sched.call_soon(sched.stop)
    sched.run()
    assert points == [(64, 0.0), (128, 0.0)]


class RecordingConduit:
    """The loop's two calls into a conduit, logged: what was still queued
    when each poll and each park began, and what was written, in order."""

    def __init__(self):
        self.outbox: list = []
        self.written: list = []
        self.polls: list[int] = []
        self.parks: list[int] = []

    def put(self, frame) -> None:
        self.outbox.append(frame)

    def flush(self) -> None:
        self.written += self.outbox
        self.outbox.clear()

    def progress(self, timeout) -> None:
        (self.polls if timeout == 0.0 else self.parks).append(
            len(self.outbox))
        self.flush()
        if timeout:
            time.sleep(timeout)  # nothing can arrive: the park is a nap


def test_due_timers_flush_without_polling_and_the_loop_polls_every_64():
    """A compute-bound image: every step sends one frame, then sleeps
    for less than the loop takes to come back.  Each dry point flushes
    the step's frame and runs the due timer; only every 64th event, and
    the point before a park, polls."""
    sched = RealtimeScheduler()
    conduit = RecordingConduit()
    sched.progress, sched.flush = conduit.progress, conduit.flush
    steps = 640

    def image():
        for i in range(steps):
            conduit.put(i)
            yield Delay(1e-9)
        yield Delay(1e-3)  # nothing runnable or due: poll, then park
        sched.stop()

    Task(sched, image())
    with deadline(30):
        sched.run()
    assert len(conduit.polls) <= steps // 64 + 3
    # a poll finds at most the frame of the step that just ran: every
    # earlier one was flushed at its own dry point
    assert max(conduit.polls) <= 1
    assert conduit.parks and set(conduit.parks) == {0}
    assert conduit.written == list(range(steps))


def test_a_shutdown_the_poll_dispatched_is_not_parked_on():
    sched = RealtimeScheduler()
    timeouts = []

    def progress(timeout):
        timeouts.append(timeout)
        sched.stop()

    sched.progress = progress
    sched.run()
    assert timeouts == [0.0]


# --------------------------------------------------------------------- #
# (g)-(i) real workers
# --------------------------------------------------------------------- #

def _thread_census(img):
    yield from img.barrier()
    total = yield from img.allreduce(float(img.rank))
    return threading.active_count(), total


@pytest.mark.parallel
def test_a_worker_is_one_thread_and_its_conduit_counts_for_itself():
    run = ProcessRunner(_thread_census, 2).start().wait(timeout=60)
    assert run.results == [(1, 1.0), (1, 1.0)]
    stats = run.stats
    assert 0 < stats["conduit.writes"] <= stats["conduit.frames"]
    assert stats["rt.parked_us"] > 0


VICTIM = 1


def _setup_big(machine):
    machine.coarray("big", shape=(1 << 17,), dtype=np.int64)


def _write_toward_the_dead(img, ready, grace):
    yield from img.barrier()
    if img.rank == 0:
        ready.set()
    yield from img.compute(grace)  # the kill lands in here
    big = img.machine.coarray_by_name("big")
    img.copy_async(big.ref(VICTIM, slice(None)),
                   np.ones(1 << 17, dtype=np.int64))
    yield from img.compute(0.05)  # a progress point or two
    return img.rank


def _backlog(machine, rank):
    return machine.network.conduit.pending()


@pytest.mark.parallel
def test_shutdown_does_not_wait_on_a_tail_toward_a_dead_rank():
    """1 MB toward a SIGKILLed worker fills its pipe and stays queued:
    the survivors neither block on it nor wait for it at exit."""
    ready = multiprocessing.get_context("fork").Event()
    runner = ProcessRunner(_write_toward_the_dead, 3, args=(ready, 1.0),
                           setup=_setup_big, finalize=_backlog)
    runner.start()
    assert ready.wait(timeout=30), "ranks never reached the barrier"
    runner.kill_worker(VICTIM)
    procs = list(runner._procs)
    run = runner.wait(timeout=60)
    assert run.dead_images == {VICTIM}
    assert [run.results[r] for r in (0, 2)] == [0, 2]
    for rank in (0, 2):
        frames, tail = run.extras[rank][VICTIM]
        assert frames == 0 and tail > 0
        # left by itself inside the join timeout: nobody terminated it
        assert procs[rank].exitcode == 0


def test_fan_out_select_cannot_watch_is_refused_before_anything_is_made(
        monkeypatch):
    def nothing_yet(*_args, **_kwargs):
        raise AssertionError("a pipe or a process was created")

    monkeypatch.setattr(os, "pipe", nothing_yet)
    monkeypatch.setattr(os, "fork", nothing_yet)
    runner = ProcessRunner(_thread_census, 64)
    with pytest.raises(ValueError, match="at most 22 images"):
        runner.start()
    assert runner._procs == []
