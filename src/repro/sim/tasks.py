"""Cooperative tasks over the discrete-event engine.

A *task* is a Python generator that models one thread of execution on a
simulated machine.  The generator yields *directives* to the scheduler:

``yield Delay(dt)``
    advance this task's virtual time by ``dt`` seconds (models computation);

``yield future``
    block until the :class:`Future` resolves; the resolved value becomes the
    value of the ``yield`` expression (an exception set on the future is
    re-raised inside the task).

Composite waits are built with :func:`all_of` / :func:`any_of`.  Subroutines
compose with plain ``yield from``, so runtime code reads like straight-line
blocking code:

    def kernel(img):
        yield Delay(1e-6)                    # compute
        value = yield from img.event_wait(ev)  # block on a runtime call

Nothing here knows about networks or CAF semantics; higher layers build on
these primitives.

Hot-path notes (DESIGN.md §9): :meth:`Task._step` is a bounded trampoline —
when a task yields a future that is *already resolved* and the simulator is
quiescent at the current instant (``sim.quiescent_at_now()``), the generator
is resumed synchronously instead of bouncing through ``call_soon``.  The
quiescence gate is what keeps this an invisible optimization: with nothing
else due at this timestamp, the scheduled continuation would have run next
anyway, so eliding the event cannot reorder anything.  A
:class:`Semaphore`'s wait queue is a deque, so many-waiter wake-ups are
O(1) per wake instead of O(n) ``list.pop(0)`` shifts — FIFO order is
unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.engine import Simulator, SimulationError

#: Cap on synchronous resumptions per :meth:`Task._step` activation.  Long
#: already-resolved chains (e.g. a loop over resolved futures) bounce through
#: the scheduler every N steps, bounding Python stack growth (the trampoline is
#: iterative) and one activation's ability to starve the event loop.
_TRAMPOLINE_CAP = 64


class TaskFailed(RuntimeError):
    """An exception escaped a task's generator."""


def with_task_note(exc: BaseException, task_name: str) -> BaseException:
    """``exc`` with a PEP 678 note naming the task it escaped from: how
    a launcher re-raises a main program's own exception."""
    note = f"task {task_name!r} failed"
    notes = getattr(exc, "__notes__", [])
    if note not in notes:
        exc.__notes__ = [*notes, note]  # add_note, also on Python 3.10
    return exc


class Delay:
    """Directive: advance the yielding task's clock by ``dt`` seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise SimulationError(f"negative Delay {dt!r}")
        self.dt = dt

    def __repr__(self) -> str:
        return f"Delay({self.dt!r})"


class Future:
    """A single-assignment result that tasks can block on.

    Futures carry either a value or an exception.  Callbacks added after
    resolution fire immediately (synchronously), which keeps completion
    chains at one timestamp from being artificially spread over events.
    """

    __slots__ = ("_done", "_value", "_exc", "_callbacks", "name", "_clock")

    def __init__(self, name: str = ""):
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        #: None until the first listener registers (most points that
        #: nobody watches then cost no list)
        self._callbacks: Optional[list[Callable[["Future"], None]]] = None
        self.name = name

    # -- state --------------------------------------------------------- #

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise SimulationError(f"Future {self.name!r} not resolved")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise SimulationError(f"Future {self.name!r} not resolved")
        return self._exc

    # -- resolution ---------------------------------------------------- #

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError(f"Future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError(f"Future {self.name!r} resolved twice")
        self._done = True
        self._exc = exc
        self._fire()

    def add_done_callback(self, cb: Callable[["Future"], None]) -> None:
        if self._done:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def _fire(self) -> None:
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            for cb in cbs:
                cb(self)

    def __repr__(self) -> str:
        state = "done" if self._done else "pending"
        return f"<Future {self.name!r} {state}>"


class ClockPoint(Future):
    """A completion point whose time the transport alone decides
    (DESIGN.md §3.3): it resolves to None at the ``(time, seq)`` slot
    :meth:`Simulator.reserve` handed out, ``_clock = (sim, time, seq)``,
    and schedules an event only when a callback is attached before then.
    A ``.done`` read at that slot answers as the eager event would."""

    __slots__ = ()

    @property
    def done(self) -> bool:
        if self._done:
            return True
        # Due once the clock is past ``time``, or at it with the engine's
        # position at or past ``seq``: where the eager event would fire.
        sim, time, seq = self._clock
        now = sim._now
        if now > time or (now == time and sim._pos >= seq):
            self._done = True
            return True
        return False

    # A point that has come due settles (``_done``) on its first read.

    def result(self) -> Any:
        _ = self.done
        return Future.result(self)

    def exception(self) -> Optional[BaseException]:
        _ = self.done
        return Future.exception(self)

    def add_done_callback(self, cb: Callable[["Future"], None]) -> None:
        if self.done:
            cb(self)
            return
        if self._callbacks is None:
            sim, time, seq = self._clock
            sim.schedule_reserved(time, seq, self._ring)
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def _ring(self) -> None:
        """The event of a point someone listens to."""
        self._done = True
        self._fire()


def clock_point(clock: tuple, name: str) -> Future:
    """The future of the clock point ``clock = (sim, time, seq)``: a
    :class:`ClockPoint`, or a plain resolved future once it has come
    due (so the fast paths that read ``_done`` see it done)."""
    fut = ClockPoint(name)
    fut._clock = clock
    if fut.done:
        fut.__class__ = Future
    return fut


def all_of(futures: Iterable[Future], name: str = "all_of") -> Future:
    """A future that resolves (to a list of values, in input order) once
    every input future has resolved.  The first exception wins."""
    futures = list(futures)
    out = Future(name)
    if not futures:
        out.set_result([])
        return out
    remaining = [len(futures)]

    def on_done(_f: Future) -> None:
        if out.done:
            return
        exc = _f.exception()
        if exc is not None:
            out.set_exception(exc)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            out.set_result([f.result() for f in futures])

    for f in futures:
        f.add_done_callback(on_done)
    return out


def any_of(futures: Iterable[Future], name: str = "any_of") -> Future:
    """A future that resolves to ``(index, value)`` of the first input
    future to resolve."""
    futures = list(futures)
    if not futures:
        raise SimulationError("any_of of no futures")
    out = Future(name)

    def make_cb(i: int) -> Callable[[Future], None]:
        def on_done(_f: Future) -> None:
            if out.done:
                return
            exc = _f.exception()
            if exc is not None:
                out.set_exception(exc)
            else:
                out.set_result((i, _f.result()))

        return on_done

    for i, f in enumerate(futures):
        f.add_done_callback(make_cb(i))
    return out


class Task:
    """A generator driven by the simulator.

    The task's completion is observable through :attr:`done_future`, which
    resolves to the generator's return value (or the escaping exception,
    wrapped in :class:`TaskFailed`).  It is built on first read: a task
    nobody asks about keeps its outcome in ``_rvalue`` / ``_rexc``.

    Task ids come from :meth:`Simulator.next_task_id`, so two machines (or
    two back-to-back runs in one process) name their tasks identically —
    task ids are part of trace output and must be reproducible.
    """

    __slots__ = ("tid", "sim", "gen", "name", "owner", "_killed", "_rvalue",
                 "_rexc", "_resume_cb", "_watch")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "",
                 owner: Optional[int] = None):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Task expects a generator; got {type(gen).__name__}. "
                "Did you call the kernel instead of passing its generator?"
            )
        self.tid = sim.next_task_id()
        self.sim = sim
        self.gen = gen
        self.name = name or f"task-{self.tid}"
        #: ``done_future`` once someone read it, else None
        self._watch: Optional[Future] = None
        #: The simulated image this task executes on behalf of, or None
        #: for infrastructure tasks that survive any image's crash.  Only
        #: owned tasks are registered with the simulator's kill registry.
        self.owner = owner
        self._killed = False
        # Resume state lives on the task (not in event args) and the bound
        # continuation is allocated once: every switch then schedules a
        # zero-arg callback, hitting the engine's `fn()` fast path.  The
        # bound method refers back to the task, so it is dropped the
        # moment the generator finishes (or the task is killed): a
        # finished task is then freed by refcount, never by the cyclic
        # collector (DESIGN.md §9.2).
        self._rvalue: Any = None
        self._rexc: Optional[BaseException] = None
        self._resume_cb = self._resume
        if owner is not None:
            sim._register_task(self)
        sim.call_soon(self._resume_cb)

    @property
    def done_future(self) -> Future:
        fut = self._watch
        if fut is None:
            fut = self._watch = Future("task.done")
            if self._resume_cb is None and not self._killed:
                # Finished before anyone asked: resolve with its outcome.
                if self._rexc is not None:
                    fut.set_exception(self._rexc)
                else:
                    fut.set_result(self._rvalue)
        return fut

    # -- fail-stop support --------------------------------------------- #

    def kill(self) -> None:
        """Fail-stop this task: it never advances again.

        Deliberately does *not* close the generator — ``gen.close()``
        would raise GeneratorExit inside it and run its ``finally:``
        blocks (completion counting, event posts), which a crashed image
        must not do.  Nor does it drop it: the last reference to a
        suspended generator finalizes it, which closes it all the same.
        The generator is parked in the substrate's kill registry
        (``OwnedTasks._abandoned``) instead, and the task lets go of it
        and of its cached resume callback; an already-queued resume
        no-ops via ``_killed``, and a future the task was blocked on
        schedules nothing when it resolves.  ``done_future`` is left
        unresolved, mirroring a process that stopped mid-flight."""
        if self._resume_cb is None:
            return  # killed already, or finished
        self._killed = True
        self.sim._abandoned.append(self.gen)
        self.gen = None
        self._resume_cb = None

    # -- scheduling internals ------------------------------------------ #

    def _resume(self) -> None:
        """Advance the generator.  Runs as a bounded trampoline: a yield
        of an already-resolved future continues synchronously while the
        simulator is quiescent at this instant (order-identical to the
        scheduled path; see module docstring), bouncing back through the
        scheduler at :data:`_TRAMPOLINE_CAP` resumptions."""
        if self._killed:
            return
        gen = self.gen
        sim = self.sim
        value = self._rvalue
        exc = self._rexc
        if value is not None:
            self._rvalue = None
        if exc is not None:
            self._rexc = None
        budget = _TRAMPOLINE_CAP
        while True:
            try:
                if exc is not None:
                    directive = gen.throw(exc)
                else:
                    directive = gen.send(value)
            except StopIteration as stop:
                self._resume_cb = None
                watch = self._watch
                if watch is None:
                    self._rvalue = stop.value
                else:
                    watch.set_result(stop.value)
                return
            except BaseException as e:  # noqa: BLE001 - surfaced via future
                self._resume_cb = None
                wrapped = TaskFailed(f"task {self.name!r} failed: {e!r}")
                wrapped.__cause__ = e
                watch = self._watch
                if watch is None:
                    self._rexc = wrapped
                else:
                    watch.set_exception(wrapped)
                return
            # Type-keyed dispatch: exact-class checks beat isinstance on
            # the hot path; subclasses and bad yields take the slow path.
            cls = directive.__class__
            if cls is Delay:
                sim.schedule(directive.dt, self._resume_cb)
                return
            if cls is Future or (cls is ClockPoint and directive.done):
                if directive._done:
                    value = directive._value
                    exc = directive._exc
                    budget -= 1
                    if budget and sim.quiescent_at_now():
                        continue
                    # Trampoline cap hit, or other events are due at this
                    # instant: bounce through the scheduler.
                    self._rvalue = value
                    self._rexc = exc
                    sim.call_soon(self._resume_cb)
                    return
                cbs = directive._callbacks
                if cbs is None:
                    directive._callbacks = [self._on_future]
                else:
                    cbs.append(self._on_future)
                return
            self._dispatch(directive)
            return

    def _dispatch(self, directive: Any) -> None:
        """Slow path: Delay/Future subclasses and invalid directives."""
        if isinstance(directive, Delay):
            self.sim.schedule(directive.dt, self._resume_cb)
        elif isinstance(directive, Future):
            directive.add_done_callback(self._on_future)
        else:
            self._rexc = SimulationError(
                f"task {self.name!r} yielded {directive!r}; expected "
                "Delay or Future (did you forget `yield from`?)"
            )
            self.sim.call_soon(self._resume_cb)

    def _on_future(self, fut: Future) -> None:
        if self._killed:
            return
        self._rvalue = fut._value
        self._rexc = fut._exc
        self.sim.call_soon(self._resume_cb)

    def __repr__(self) -> str:
        done = self._resume_cb is None and not self._killed
        return f"<Task {self.name} {'done' if done else 'live'}>"


class Semaphore:
    """A counting semaphore; used for flow-control credits.

    ``acquire`` blocks (``yield from``) when the count is zero; ``release``
    wakes the longest-waiting acquirer (deque-backed, O(1) wakes).
    """

    def __init__(self, sim: Simulator, count: int, name: str = "sem"):
        if count < 0:
            raise SimulationError("semaphore count must be >= 0")
        self.sim = sim
        self.name = name
        self._count = count
        self._waiters: deque[Future] = deque()

    @property
    def available(self) -> int:
        return self._count

    def try_acquire(self) -> bool:
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def acquire(self) -> Generator[Any, Any, None]:
        if self._count > 0:
            self._count -= 1
            return
        fut = Future(f"{self.name}.acquire")
        self._waiters.append(fut)
        yield fut

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().set_result(None)
        else:
            self._count += 1


class Condition:
    """Predicate-based waiting: tasks block until a user predicate becomes
    true; any state change that might flip a predicate calls :meth:`wake`.

    This models the paper's ``wait until (e.sent == e.delivered && ...)``
    (Fig. 7, line 4) directly.
    """

    def __init__(self, sim: Simulator, name: str = "cond"):
        self.sim = sim
        self.name = name
        self._waiters: list[tuple[Callable[[], bool], Future]] = []

    @property
    def waiting(self) -> int:
        """Tasks currently blocked on this condition (diagnostic)."""
        return len(self._waiters)

    def wait_until(self, predicate: Callable[[], bool]) -> Generator[Any, Any, None]:
        if predicate():
            return
        fut = Future(f"{self.name}.wait")
        self._waiters.append((predicate, fut))
        yield fut

    def wake(self) -> None:
        """Re-check all waiting predicates; resolve those now true."""
        waiters = self._waiters
        if not waiters:
            return
        if len(waiters) == 1:
            # the common case (one task waits on a finish frame)
            pred, fut = waiters[0]
            if pred():
                self._waiters = []
                fut.set_result(None)
            return
        still: list[tuple[Callable[[], bool], Future]] = []
        ready: list[Future] = []
        for pred, fut in waiters:
            if pred():
                ready.append(fut)
            else:
                still.append((pred, fut))
        self._waiters = still
        for fut in ready:
            fut.set_result(None)
