"""True-parallel SPMD launch: one OS process per image.

The coordinator (:class:`ProcessRunner`) forks ``n_images`` workers.
Each worker builds its **own full local Machine** — same registries,
same AM handlers, same finish/termination/failure machinery as under
the simulator — over a :class:`~repro.backend.realtime.RealtimeScheduler`
and a :class:`~repro.backend.transport.ProcessTransport`, then launches
*only its own rank's* main program.  All cross-rank interaction in this
runtime is active-message-mediated, so nothing else is needed: an AM
addressed to rank ``d`` is pickled and queued on this worker's
:class:`_Conduit`, which the run loop flushes and polls (DESIGN.md
§14.5) — one thread per process, no helper.

Protocol (one non-blocking pipe per ordered pair of workers and one
control pipe per worker, each carrying *records* — an 8-byte length,
then the pickled list of every frame put toward that destination since
the last flush; one multiprocessing queue back to the parent):

- ``("am", src, seq, want_ack, blob)`` — frame: a pickled active message;
- ``("ack", src, seq)``             — frame: delivery confirmation;
- ``("shutdown",)``                 — control frame: stop the loop;
- ``("done", rank, payload)``       — worker → parent: main returned
  (its result, ``finalize`` extras and the stats snapshot);
- ``("error", rank, exc)``          — worker → parent: the first error
  to leave the worker's bootstrap or run loop (as under the simulator).

A worker that *disappears* (``os.kill``, crash) simply stops being
alive; the parent's collection loop notices via ``Process.is_alive``
and records it in ``dead_images`` with a ``None`` result — survivors
learn of the death through the heartbeat failure detector exactly as
simulated images do, because the detector's heartbeats are themselves
active messages riding this conduit.

Requires the ``fork`` start method (kernels, setups and closures are
inherited, not pickled); Linux and macOS-with-fork only.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import select
import struct
import time
from typing import Any, Callable, Optional

#: default coordinator-side wall-clock budget for one parallel run
DEFAULT_TIMEOUT_S = 300.0

#: ``select`` watches descriptors numbered below FD_SETSIZE (1024) and a
#: run opens 2·n² of them: 968 at 22, beside what the process had already
_MAX_IMAGES = 22

_RECORD_LEN = struct.Struct("<Q")


def _record(frames: list) -> bytes:
    body = pickle.dumps(frames, pickle.HIGHEST_PROTOCOL)
    return _RECORD_LEN.pack(len(body)) + body


class ParallelTimeoutError(RuntimeError):
    """The parallel run exceeded the coordinator's wall-clock budget.

    ``partial`` holds the :class:`ParallelRun` as collected so far —
    the results of the ranks that did report."""

    def __init__(self, message: str, partial: "ParallelRun" = None):
        super().__init__(message)
        self.partial = partial


class _Conduit:
    """What a worker's transport sees: its rank plus ``put(dst, frame)``
    toward any other worker.  ``put`` only queues; :meth:`flush` and
    :meth:`progress`, called on the run loop, move the bytes — over
    pipes with one writer and one reader each, so no lock, and
    non-blocking at both ends, so two workers sending each other more
    than a pipe holds cannot deadlock and a dead peer's full pipe
    stalls nobody."""

    def __init__(self, rank: int, readers=(), writers=()):
        self.rank = rank
        #: dst -> write end of the pipe toward it
        self._writers: dict[int, int] = dict(writers)
        #: dst -> frames put since the last record toward it
        self._outbox: dict[int, list] = {dst: [] for dst in self._writers}
        #: dst -> the rest of a record its pipe would not take yet
        self._tails: dict[int, memoryview] = {}
        self._readers: list[int] = list(readers)
        #: read end -> bytes read that are not a whole record yet
        self._inbuf = {fd: bytearray() for fd in self._readers}
        #: wired by the worker: where a frame goes, how the loop ends
        self.deliver = self.stop = None
        #: records written, frames in them, seconds spent in ``select``
        self.writes = self.frames = 0
        self.parked_s = 0.0

    def put(self, dst: int, frame: tuple) -> None:
        self._outbox[dst].append(frame)

    def pending(self) -> dict[int, tuple[int, int]]:
        """Per destination with a backlog: ``(frames queued, bytes of
        unwritten tail)``."""
        return {dst: (len(frames), len(self._tails.get(dst, b"")))
                for dst, frames in self._outbox.items()
                if frames or dst in self._tails}

    def flush(self) -> None:
        """Write each destination's queued frames as one record, resuming
        a refused tail first and keeping what the pipe refuses; waits
        for nothing."""
        tails = self._tails
        for dst, frames in self._outbox.items():
            tail = tails.pop(dst, None)
            while tail or frames:
                if not tail:
                    tail = memoryview(_record(frames))
                    self.writes += 1
                    self.frames += len(frames)
                    frames.clear()
                try:
                    tail = tail[os.write(self._writers[dst], tail):]
                except BlockingIOError:
                    tails[dst] = tail
                    break

    def progress(self, timeout: Optional[float]) -> None:
        """One progress point: :meth:`flush`, wait up to ``timeout`` for
        something to arrive — or for a refused tail's pipe to drain —
        and dispatch every frame that has."""
        self.flush()
        blocked = [self._writers[dst] for dst in self._tails]
        t0 = time.monotonic()
        readable = select.select(self._readers, blocked, (), timeout)[0]
        self.parked_s += time.monotonic() - t0
        for fd in readable:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                # The coordinator holds every end open for the length of
                # the run: end-of-file means it is gone.
                self.stop()
                return
            buf = self._inbuf[fd]
            buf += chunk
            while len(buf) >= 8:
                end = 8 + _RECORD_LEN.unpack_from(buf)[0]
                if len(buf) < end:
                    break
                frames = pickle.loads(buf[8:end])
                del buf[:end]
                for frame in frames:
                    if frame[0] == "shutdown":
                        self.stop()
                    else:
                        self.deliver(frame)


class _ClockShim:
    """Stands in for ``machine.sim`` on the coordinator-side result."""

    __slots__ = ("now", "events_processed")

    def __init__(self, now: float, events_processed: int):
        self.now = now
        self.events_processed = events_processed


class ParallelRun:
    """Coordinator-side view of a completed parallel run (duck-types the
    slice of ``Machine`` the harness and tests read)."""

    def __init__(self, n_images: int):
        self.n_images = n_images
        self.results: list[Any] = [None] * n_images
        #: per-rank ``finalize(machine, rank)`` values (None without one)
        self.extras: list[Any] = [None] * n_images
        #: workers that vanished without reporting (killed processes)
        self.dead_images: set[int] = set()
        #: summed per-key counters across every worker
        self.stats = None
        #: per-rank final scheduler clocks (wall seconds in-worker)
        self.worker_now: list[float] = [0.0] * n_images
        self.wall_s = 0.0
        self.sim = _ClockShim(0.0, 0)

    def _seal(self, stats, wall_s: float) -> None:
        self.stats = stats
        self.wall_s = wall_s
        self.sim = _ClockShim(max(self.worker_now, default=0.0),
                              stats["rt.events"] if stats else 0)


def preflight(n_images: int, **machine_kwargs) -> None:
    """Build, and drop, a machine of the workers' parts that hosts no
    rank — the caller's own position in a process launch.  A launcher
    that takes more than :func:`run_spmd_process` can carry to its
    workers hands it here first: what the parts refuse (a fault plan
    over the conduit, a schedule source on a wall clock, race checking
    with ranks hosted elsewhere) is then refused once, in the caller's
    process and before anything is forked."""
    from repro.runtime.program import Machine

    Machine(n_images, backend="process", conduit=_Conduit(-1),
            local_ranks=(), **machine_kwargs)


def _picklable(obj: Any) -> Any:
    """Make a value safe for the parent queue (whose feeder thread would
    otherwise swallow pickling errors and silently drop the message)."""
    try:
        pickle.dumps(obj)
        return obj
    except Exception:
        if isinstance(obj, BaseException):
            return RuntimeError(f"{type(obj).__name__}: {obj}")
        return f"<unpicklable {type(obj).__name__}: {obj!r}>"


def _own_ends(rank: int, pipes: list) -> tuple[list, dict]:
    """A forked worker's ends of ``pipes[src][dst]`` — the read end of
    every pipe toward it, the write end of every pipe from it — closing
    each inherited descriptor that is another process's to use."""
    readers = [row[rank][0] for row in pipes if rank in row]
    writers = {dst: w for dst, (_r, w) in pipes[rank].items()}
    inherited = {fd for row in pipes for ends in row.values() for fd in ends}
    for fd in inherited.difference(readers, writers.values()):
        os.close(fd)
    return readers, writers


def _worker_main(spec: dict) -> None:
    from repro.runtime.program import Machine

    rank = spec["rank"]
    parent_q = spec["parent_q"]
    try:
        conduit = _Conduit(rank, *_own_ends(rank, spec["pipes"]))
        machine = Machine(
            spec["n_images"], params=spec["params"], seed=spec["seed"],
            backend="process", conduit=conduit, local_ranks=(rank,),
            failure_detection=spec["failure_detection"],
        )
        setup = spec["setup"]
        if setup is not None:
            setup(machine)
        task = machine.launch(spec["kernel"], args=spec["args"])[0]
        sched = machine.sim
        sched.progress = conduit.progress
        sched.flush = conduit.flush
        conduit.deliver = machine.network.deliver_frame
        conduit.stop = sched.stop

        def report_done(fut) -> None:
            # After the machine's callback, which ends a failed run.
            finalize = spec["finalize"]
            extras = None if finalize is None else finalize(machine, rank)
            stats = machine.stats.as_dict()
            stats["rt.events"] = sched.events_processed
            stats["rt.parked_us"] = int(conduit.parked_s * 1e6)
            stats["conduit.writes"] = conduit.writes
            stats["conduit.frames"] = conduit.frames
            parent_q.put(("done", rank, (_picklable(fut.result()),
                                         _picklable(extras), stats,
                                         sched.now)))

        task.done_future.add_done_callback(report_done)
        sched.run()
    except BaseException as exc:  # noqa: BLE001 - shipped to parent
        parent_q.put(("error", rank, _picklable(exc)))


class ProcessRunner:
    """Fork, run, collect.  ``start()`` then ``wait()``; or use
    :func:`run_spmd_process` for the one-shot path.  Between the two
    calls :attr:`pids` exposes the worker process ids — the hook the
    fault-tolerance tests use to ``os.kill`` a real worker mid-run."""

    def __init__(self, kernel: Callable, n_images: int, *,
                 params=None, seed: int = 0, args: tuple = (),
                 setup: Optional[Callable] = None,
                 failure_detection=None,
                 finalize: Optional[Callable] = None):
        if n_images < 1:
            raise ValueError(f"need at least one image, got {n_images}")
        self.kernel = kernel
        self.n_images = n_images
        self.params = params
        self.seed = seed
        self.args = args
        self.setup = setup
        self.failure_detection = failure_detection
        self.finalize = finalize
        self._procs: list = []
        #: ``_pipes[src][dst]`` is the ``(read, write)`` pair of the pipe
        #: from ``src`` to ``dst``; row ``n_images`` is the coordinator's
        #: control pipes
        self._pipes: list[dict] = []
        self._parent_q = None
        self._t0 = 0.0

    def start(self) -> "ProcessRunner":
        n = self.n_images
        if n > _MAX_IMAGES:
            raise ValueError(
                f"{n} images need {2 * n * n} pipe descriptors, more than "
                "select() can watch (FD_SETSIZE is 1024): the process "
                f"backend runs at most {_MAX_IMAGES} images")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise RuntimeError(
                "the process backend requires the 'fork' start method "
                "(kernels and setups are inherited, not pickled)"
            ) from None
        self._parent_q = ctx.Queue()
        self._pipes = [{dst: os.pipe() for dst in range(n) if dst != src}
                       for src in range(n + 1)]
        for row in self._pipes:
            for end in row.values():
                os.set_blocking(end[0], False)
                os.set_blocking(end[1], False)
        self._t0 = time.monotonic()
        for rank in range(n):
            spec = {
                "rank": rank, "n_images": n, "kernel": self.kernel,
                "args": self.args, "params": self.params,
                "seed": self.seed, "setup": self.setup,
                "failure_detection": self.failure_detection,
                "finalize": self.finalize,
                "pipes": self._pipes, "parent_q": self._parent_q,
            }
            proc = ctx.Process(target=_worker_main, args=(spec,),
                               daemon=True, name=f"image-{rank}")
            proc.start()
            self._procs.append(proc)
        return self

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self._procs]

    def wait(self, timeout: float = DEFAULT_TIMEOUT_S) -> ParallelRun:
        """Collect every worker's verdict, shut the fleet down, and
        return the :class:`ParallelRun`.  A worker that dies without
        reporting lands in ``dead_images`` with a ``None`` result.

        A worker reports success, or the first error to leave its run
        loop (as under the simulator).  The first error reported ends
        the run at once: the fleet is terminated and the error raised
        here as itself, noted with the rank's main task, instead of its
        peers waiting out ``timeout`` for a rank that will never reach
        them."""
        from repro.sim.tasks import with_task_note

        run = ParallelRun(self.n_images)
        deadline = self._t0 + timeout
        pending = set(range(self.n_images))
        stats_sum: dict[str, int] = {}
        while pending:
            try:
                item = self._parent_q.get(timeout=0.2)
            except queue_mod.Empty:
                for rank in sorted(pending):
                    if not self._procs[rank].is_alive():
                        pending.discard(rank)
                        run.dead_images.add(rank)
                if time.monotonic() > deadline:
                    self._abort()
                    raise ParallelTimeoutError(
                        f"parallel run exceeded {timeout:.0f}s with "
                        f"rank(s) {sorted(pending)} unaccounted for",
                        partial=run)
                continue
            tag, rank = item[0], item[1]
            pending.discard(rank)
            if tag == "error":
                self._abort()
                raise with_task_note(item[2], f"main@{rank}")
            result, extras, stats, worker_now = item[2]
            run.worker_now[rank] = worker_now
            for key, value in stats.items():
                stats_sum[key] = stats_sum.get(key, 0) + value
            run.results[rank] = result
            run.extras[rank] = extras
        self._shutdown(run)
        from repro.sim.trace import Stats

        stats = Stats()
        for key, value in stats_sum.items():
            stats.incr(key, value)
        run._seal(stats, time.monotonic() - self._t0)
        return run

    def _shutdown(self, run: ParallelRun) -> None:
        for rank, proc in enumerate(self._procs):
            if rank not in run.dead_images and proc.is_alive():
                os.write(self._pipes[self.n_images][rank][1],
                         _record([("shutdown",)]))
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._abort()

    def _abort(self) -> None:
        """Stop every worker still running and release the run's pipes
        and queue."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
        for row in self._pipes:
            for end in row.values():
                os.close(end[0])
                os.close(end[1])
        self._pipes = []
        self._parent_q.cancel_join_thread()
        self._parent_q.close()

    def kill_worker(self, rank: int) -> None:
        """SIGKILL one worker — a *real* fail-stop crash for the failure
        detector to find."""
        import signal

        os.kill(self._procs[rank].pid, signal.SIGKILL)


def run_spmd_process(kernel: Callable, n_images: int, *,
                     params=None, seed: int = 0, args: tuple = (),
                     setup: Optional[Callable] = None,
                     failure_detection=None,
                     finalize: Optional[Callable] = None,
                     timeout: float = DEFAULT_TIMEOUT_S,
                     ) -> tuple[ParallelRun, list]:
    """Process-backend twin of :func:`repro.runtime.program.run_spmd`:
    returns ``(run, per-rank results)`` with the same result-list
    semantics (a dead image reports ``None``)."""
    runner = ProcessRunner(kernel, n_images, params=params, seed=seed,
                           args=args, setup=setup,
                           failure_detection=failure_detection,
                           finalize=finalize)
    runner.start()
    run = runner.wait(timeout=timeout)
    return run, run.results
