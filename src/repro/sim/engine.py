"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock and a queue of pending events.
An *event* is simply a callback scheduled to fire at a given virtual
time.  Ties are broken by insertion order, which makes every run
bit-for-bit reproducible.

Virtual time is a float in *seconds*; the network and runtime layers express
latencies and occupancies in the same unit, so the numbers produced by the
benchmark harness read directly as "simulated execution time in seconds".

Hot-path design (DESIGN.md §9)
------------------------------
The per-event cost of this loop bounds the problem sizes every paper
benchmark can afford, so the queue is built from three structures instead
of one heap of event objects:

- a **binary heap of plain lists** ``[time, seq, fn, args]`` — list
  entries compare element-wise in C (time first, then the globally unique
  ``seq``), so ordering never calls back into Python, and no per-event
  object is allocated;
- a **same-timestamp ready deque** — events scheduled *at the current
  instant* while no heap entry is due at that same instant are appended
  to a FIFO deque and bypass the heap entirely (``call_soon`` chains and
  zero-delay cascades cost two deque ops instead of two heap ops);
- a **single-event staging slot** — when the whole queue is empty, the
  next scheduled event parks in ``_single`` instead of the heap.  A
  sequential chain (one activation computing step by step — the dominant
  pattern in every kernel) then never touches the heap at all.

Invariants that keep the three structures equivalent to one totally
ordered queue:

1. ``_single`` is only occupied while the heap and the ready deque are
   both empty (so it is trivially the global minimum, and its timestamp
   is strictly in the future), and it is flushed into the heap the moment
   anything else is scheduled;
2. the ready deque only holds events stamped at the current virtual
   time, appended while no heap entry was due at that same instant — so
   deque order equals (time, seq) order;
3. the run loop drains ``_single``, then the ready deque, then the heap.

Cancellation marks the entry in place (``entry[2] = None``) and counts it
in a stale counter, which keeps :attr:`Simulator.pending_events` O(1);
stale entries are skipped (and the counter repaid) when they surface.

Schedule exploration (DESIGN.md §10)
------------------------------------
Ties among same-instant events are normally broken by insertion order —
a *hidden* scheduling decision baked into the queue structures above.
:meth:`Simulator.set_schedule_source` turns that decision into an
explicit, recordable choice: with a source installed, :meth:`run`
switches to a controlled loop that gathers every live event due at the
earliest pending instant into a batch and asks the source which fires
next (a ``"ready"`` :class:`ChoicePoint`).  Choosing index 0 at every
point reproduces the baseline (time, seq) order exactly; other indices
explore alternative interleavings.  With no source installed the three
fast structures and the baseline loop below are untouched — behavior
and cost are bit-identical to a build without the hook.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

#: owned-task registrations before the first sweep of finished tasks
_TASK_SWEEP_MIN = 32

#: Collector thresholds while a run loop runs.  The operations in flight
#: are many tracked objects, and at the default (700, 10, 10) the
#: collector re-walks them ever more often as the image count grows.  A
#: finished task leaves no cycle (``Task._resume``), so a 100k young
#: generation holds no extra garbage.  Chosen by measurement: on
#: ``ra_ship_sim``, (10_000, 10, 10) ran 20 % slower than these
#: thresholds (DESIGN.md §9.2, "The collector").
_RUN_GC_THRESHOLD = (100_000, 50, 100)


@contextmanager
def run_loop_gc() -> Iterator[None]:
    """The collector policy of a run loop: :data:`_RUN_GC_THRESHOLD`
    for its duration, the caller's thresholds restored on every exit."""
    saved = gc.get_threshold()
    gc.set_threshold(*_RUN_GC_THRESHOLD)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


#: A scheduled event: ``[time, seq, fn, args]``.  Slot 2 (``fn``) doubles
#: as the liveness mark — ``None`` means cancelled or already fired,
#: which is what makes late :meth:`Simulator.cancel` calls harmless.
Event = List[Any]


class SimulationError(RuntimeError):
    """Raised for malformed use of the simulator (negative delays,
    scheduling into the past, running a finished simulation, ...)."""


class ChoicePoint:
    """One explicit nondeterminism point offered to a schedule source.

    Defined here (the lowest layer) so both the simulator (``"ready"``
    tie-breaks) and the transport (``"lag"`` delivery decisions) can
    construct one without importing the exploration package.

    Attributes
    ----------
    domain:
        ``"ready"`` — pick which of ``n`` same-instant events fires
        next; ``"lag"`` — pick one of ``n`` discrete extra-delay steps
        for a wire transmission.
    n:
        Number of alternatives; the source must return an int in
        ``[0, n)``.  Alternative 0 always reproduces baseline behavior.
    labels:
        Per-alternative identity keys (``"ready"`` only): a stable,
        reproducible name for each candidate event's actor, used by
        priority-based strategies and the commuting-choice filter.
    key:
        A stable name for the point itself (``"lag"``: kind and link).
    branch_hint:
        False when alternatives provably commute with everything else in
        flight (e.g. a lag choice with no other message bound for the
        same image) — systematic strategies may skip branching here.
    """

    __slots__ = ("domain", "n", "labels", "key", "branch_hint")

    def __init__(self, domain: str, n: int, labels: tuple = (),
                 key: Optional[str] = None, branch_hint: bool = True):
        self.domain = domain
        self.n = n
        self.labels = labels
        self.key = key
        self.branch_hint = branch_hint

    def __repr__(self) -> str:
        return (f"ChoicePoint({self.domain!r}, n={self.n}, "
                f"key={self.key!r})")


def _event_label(entry: Event) -> str:
    """A reproducible identity for a queued event's actor: the owning
    task for task continuations, the callback's qualified name
    otherwise.  Never uses object ids (they vary run to run)."""
    fn = entry[2]
    owner = getattr(fn, "__self__", None)
    tid = getattr(owner, "tid", None)
    if tid is not None:
        return f"task:{tid}"
    name = getattr(fn, "__qualname__", None)
    if name is None:
        name = type(fn).__name__
    return name


def _budget_exhausted(now: float, processed: int) -> SimulationError:
    """The error a run's ``max_events`` budget raises."""
    return SimulationError(f"max_events exhausted at t={now!r} "
                           f"({processed} events processed)")


class LivenessError(SimulationError):
    """The event queue drained but the workload did not complete —
    quiescence without completion (e.g. a finish wave stalled on a lost
    counter message).  The message carries the watchdog's diagnostic:
    stalled images and their counter snapshots."""


class OwnedTasks:
    """The registry behind ``kill_owner``, shared by both substrates.

    Tasks created with ``owner=...`` register here so fail-stop crash
    injection can halt everything an image was running.  Ownerless tasks
    never appear, keeping the common case free of registry cost.  Done
    and killed tasks leave whenever the list has doubled since the last
    sweep (the rule of ``Activation.register``), so the registry holds
    O(live tasks), not every shipped function a run ever executed.

    A killed task's generator is parked in ``_abandoned`` for as long as
    the substrate lives: dropping the last reference to a suspended
    generator would finalize it at once, running its ``finally:`` blocks
    on behalf of a dead image (see ``Task.kill``)."""

    __slots__ = ()

    def _init_task_registry(self) -> None:
        self._tasks: list = []
        self._tasks_sweep_at = _TASK_SWEEP_MIN
        self._abandoned: list = []

    def _register_task(self, task) -> None:
        tasks = self._tasks
        tasks.append(task)
        if len(tasks) >= self._tasks_sweep_at:
            self._sweep_tasks()

    def _sweep_tasks(self) -> None:
        # A killed or finished task has dropped its resume callback.
        self._tasks = [task for task in self._tasks
                       if task._resume_cb is not None]
        self._tasks_sweep_at = max(_TASK_SWEEP_MIN, 2 * len(self._tasks))

    def kill_owner(self, owner: int) -> int:
        """Fail-stop every live task registered under ``owner`` (see
        ``Task.kill``): the crash half of the fail-stop model.  Returns
        the number of tasks killed."""
        self._sweep_tasks()
        killed = 0
        keep = []
        for task in self._tasks:
            if task.owner == owner:
                task.kill()
                killed += 1
            else:
                keep.append(task)
        self._tasks = keep
        return killed


class Simulator(OwnedTasks):
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    __slots__ = ("_now", "_heap", "_ready", "_single", "_seq", "_stale",
                 "_events_processed", "_running", "_drain_hooks",
                 "_task_seq", "_busy", "_schedule_source", "_batch",
                 "_tasks", "_tasks_sweep_at", "_abandoned", "_pos",
                 "_horizon")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[Event] = []
        self._ready: deque[Event] = deque()
        self._single: Optional[Event] = None
        self._seq = 0
        self._stale = 0          # cancelled entries still sitting in a queue
        self._events_processed = 0
        self._running = False
        self._drain_hooks: list[Callable[["Simulator"], None]] = []
        self._task_seq = 0       # per-simulator task-id stream (tasks.py)
        #: explicit-nondeterminism hook (None = baseline fast loops)
        self._schedule_source = None
        #: same-instant candidate batch of the controlled loop; always
        #: empty outside a controlled run
        self._batch: list[Event] = []
        self._init_task_registry()
        #: True whenever the heap or the ready deque holds entries —
        #: conservatively sticky (may stay True after they drain mid-run,
        #: re-cleared at the next natural drain).  Lets the staging check
        #: in schedule() read one flag instead of two containers; staging
        #: requires _busy False, which proves both containers empty.
        self._busy = False
        #: the seq of the event now firing (the last seq drawn, for a
        #: staged event, a synchronous continuation and after a drain):
        #: a clock point reserved for this instant has come due once
        #: ``_pos`` reaches its seq (see :meth:`reserve`)
        self._pos = 0
        #: the latest time of a reserved clock point; a natural drain
        #: moves the clock here
        self._horizon = 0.0

    # ------------------------------------------------------------------ #
    # Clock and introspection
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostic).  Refreshed at
        loop boundaries (drain, budget stop, errors, return); a callback
        reading it mid-run may see a slightly stale value."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1):
        derived from container sizes and the stale counter instead of
        scanning the heap."""
        n = len(self._heap) + len(self._ready) + len(self._batch) - self._stale
        return n + 1 if self._single is not None else n

    def next_task_id(self) -> int:
        """Allocate a task id.  Lives on the simulator (not on a class
        attribute) so ids restart at 1 for every machine and back-to-back
        runs in one process name their tasks identically."""
        self._task_seq += 1
        return self._task_seq

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    # The ``seq`` slot of a staged entry is assigned lazily: it carries
    # 0 and receives its seq the moment it is flushed into the heap —
    # before the flushing entry draws its own, which preserves creation
    # order exactly (and lets :meth:`cancel` tell a fired staged entry,
    # which the fast loop does not bother marking, from a live one).
    # Heap and ready-deque entries draw theirs when queued: heap
    # comparisons read them, and a clock point compares its reserved
    # seq with the firing event's (:meth:`reserve`).

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        now = self._now
        t = now + delay
        entry: Event = [t, 0, fn, args]
        single = self._single
        if single is None:
            if t > now:
                if self._busy:
                    self._seq = entry[1] = self._seq + 1
                    _heappush(self._heap, entry)
                else:
                    self._single = entry
                return entry
        else:
            self._seq = single[1] = self._seq + 1
            _heappush(self._heap, single)
            self._single = None
            self._busy = True
            if t > now:
                self._seq = entry[1] = self._seq + 1
                _heappush(self._heap, entry)
                return entry
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay!r}")
        heap = self._heap
        self._seq = entry[1] = self._seq + 1
        if self._ready or not heap or heap[0][0] > t:
            self._ready.append(entry)
        else:
            _heappush(heap, entry)
        self._busy = True
        return entry

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule into the past: t={time!r} < now={now!r}"
            )
        entry: Event = [time, 0, fn, args]
        single = self._single
        if single is None:
            if time > now:
                if self._busy:
                    self._seq = entry[1] = self._seq + 1
                    _heappush(self._heap, entry)
                else:
                    self._single = entry
                return entry
        else:
            self._seq = single[1] = self._seq + 1
            _heappush(self._heap, single)
            self._single = None
            self._busy = True
            if time > now:
                self._seq = entry[1] = self._seq + 1
                _heappush(self._heap, entry)
                return entry
        heap = self._heap
        self._seq = entry[1] = self._seq + 1
        if self._ready or not heap or heap[0][0] > time:
            self._ready.append(entry)
        else:
            _heappush(heap, entry)
        self._busy = True
        return entry

    def call_soon(self, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after already-queued
        events at this timestamp."""
        now = self._now
        entry: Event = [now, 0, fn, args]
        single = self._single
        if single is not None:
            self._seq = single[1] = self._seq + 1
            _heappush(self._heap, single)
            self._single = None
        heap = self._heap
        self._seq = entry[1] = self._seq + 1
        if self._ready or not heap or heap[0][0] > now:
            self._ready.append(entry)
        else:
            _heappush(heap, entry)
        self._busy = True
        return entry

    def reserve(self, time: float) -> int:
        """Reserve the ``(time, seq)`` slot of a *clock point* (DESIGN.md
        §3.3): a completion point whose time is known now and which
        reads done from that slot on without an event of its own.
        Returns the seq a :meth:`schedule_at` at this moment would have
        given the eager event, or 0 while a schedule source is installed
        — the point must then be a real event the source can order.

        The point has come due once the clock passed ``time``, or at
        ``time`` once :attr:`_pos` reached the seq.  A staged entry due
        at the same instant is flushed first, as the eager event's
        scheduling would have (its seq must stay below this one)."""
        if self._schedule_source is not None:
            return 0
        single = self._single
        if single is not None and single[0] == time:
            self._seq = single[1] = self._seq + 1
            _heappush(self._heap, single)
            self._single = None
            self._busy = True
        if time > self._horizon:
            self._horizon = time
        self._seq = seq = self._seq + 1
        return seq

    def schedule_reserved(self, time: float, seq: int,
                          fn: Callable) -> Event:
        """Queue ``fn()`` in a slot :meth:`reserve` handed out and which
        has not come due: a clock point someone now listens to fires
        exactly where its eager event would have."""
        entry: Event = [time, seq, fn, ()]
        single = self._single
        if single is not None:
            self._seq = single[1] = self._seq + 1
            _heappush(self._heap, single)
            self._single = None
        ready = self._ready
        if ready and time == self._now:
            # Due now among the same-instant entries: they keep seq order.
            i = 0
            for queued in ready:
                if queued[1] > seq:
                    break
                i += 1
            ready.insert(i, entry)
        else:
            _heappush(self._heap, entry)
        self._busy = True
        return entry

    def cancel(self, entry: Event) -> None:
        """Cancel a scheduled event.  O(1); safe to call after the event
        fired (a no-op then).  A staged entry is removed outright (so the
        staging slot only ever holds live events); a queued entry is
        marked in place and skipped when it surfaces (lazy deletion),
        with the stale counter keeping :attr:`pending_events` exact in
        the meantime."""
        if entry[2] is None:
            return  # already fired (ready/heap) or already cancelled
        if entry is self._single:
            self._single = None
            entry[2] = None
            entry[3] = ()
            return
        if entry[1] == 0 and entry[0] <= self._now:
            # A fired staged entry: seq still 0 (never flushed into the
            # heap) and its time has passed.  The fast loop skips the
            # fired-mark for staged entries, so catch it here instead.
            return
        entry[2] = None
        entry[3] = ()
        self._stale += 1

    def quiescent_at_now(self) -> bool:
        """True when no live event is due at the current instant — i.e. a
        ``call_soon`` issued now would fire immediately, with nothing in
        between.  The task layer keys its synchronous continuations on
        this, which is what makes them order-identical to the scheduled
        path (DESIGN.md §9)."""
        if self._ready or self._batch:
            return False
        heap = self._heap
        while heap and heap[0][2] is None:
            _heappop(heap)
            self._stale -= 1
        # _single, if occupied, is strictly in the future (invariant 1).
        if heap and heap[0][0] <= self._now:
            return False
        # A continuation that runs now runs where a scheduled one would
        # have: after every clock point due at this instant.
        self._pos = self._seq
        return True

    def add_drain_hook(self, fn: Callable[["Simulator"], None]) -> None:
        """Register ``fn(sim)`` to run when :meth:`run`'s event queue
        drains naturally (not on a budget stop).

        Hooks are the liveness-watchdog mechanism: a hook may inspect
        runtime state and raise (e.g. :class:`LivenessError`) to turn a
        silent stall into a diagnostic, or schedule new events — in which
        case the run resumes.  Hooks run in registration order, once per
        drain."""
        self._drain_hooks.append(fn)

    # ------------------------------------------------------------------ #
    # Schedule exploration hook
    # ------------------------------------------------------------------ #

    @property
    def schedule_source(self):
        """The installed schedule source, or None (baseline engine)."""
        return self._schedule_source

    def set_schedule_source(self, source) -> None:
        """Install (or clear, with None) a schedule source — an object
        with ``choose(point: ChoicePoint) -> int``.  With a source
        installed, :meth:`run` uses the controlled loop: every tie among
        same-instant events becomes an explicit choice the source makes.
        Index 0 always means "baseline order".  May not be changed while
        the simulator is running."""
        if self._running:
            raise SimulationError(
                "cannot change the schedule source mid-run")
        self._schedule_source = source

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _fire(self, entry: Event) -> None:
        """Run one live event (the controlled loop's helper; the baseline
        loop inlines this)."""
        fn = entry[2]
        entry[2] = None
        self._now = entry[0]
        self._events_processed += 1
        fn(*entry[3])

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains.

        Parameters
        ----------
        max_events:
            Safety valve — raise :class:`SimulationError` instead of
            firing event ``max_events + 1``, which stays queued (catches
            accidental livelock in tests).

        With a schedule source installed the controlled loop runs,
        otherwise the baseline loop; either runs under
        :func:`run_loop_gc`.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            with run_loop_gc():
                if self._schedule_source is not None:
                    self._run_controlled(max_events)
                else:
                    self._run_fast(max_events)
        finally:
            self._running = False

    def _run_fast(self, max_events: Optional[int]) -> None:
        """The baseline loop.  Everything hot lives in locals and the
        three firing sites are intentionally unrolled.  Each checks the
        budget before it fires: ``stop`` is the ``processed`` count at
        which the budget runs out, -1 (never reached) without one."""
        heap = self._heap
        ready = self._ready
        pop = _heappop
        popleft = ready.popleft
        processed = self._events_processed
        stop = -1 if max_events is None else processed + max_events
        try:
            while True:
                entry = self._single
                if entry is not None:
                    # Staged entries are always live (cancel removes
                    # them), and are not marked fired — cancel() detects
                    # a dead staged entry by seq 0 + elapsed time.
                    if processed == stop:
                        raise _budget_exhausted(self._now, processed)
                    self._single = None
                    fn = entry[2]
                    self._now = entry[0]
                    self._pos = self._seq
                    processed += 1
                    if entry[3]:
                        fn(*entry[3])
                    else:
                        fn()
                    continue
                while ready:
                    entry = popleft()
                    fn = entry[2]
                    if fn is None:
                        self._stale -= 1
                        continue
                    if processed == stop:
                        ready.appendleft(entry)
                        raise _budget_exhausted(self._now, processed)
                    entry[2] = None
                    self._pos = entry[1]
                    processed += 1
                    args = entry[3]
                    if args:
                        fn(*args)
                    else:
                        fn()
                if heap:
                    entry = pop(heap)
                    fn = entry[2]
                    if fn is None:
                        self._stale -= 1
                        continue
                    if processed == stop:
                        _heappush(heap, entry)
                        raise _budget_exhausted(self._now, processed)
                    if not heap:
                        # The queue just emptied (ready drained above):
                        # un-stick the busy flag so the callback we are
                        # about to run can stage its next event.
                        self._busy = False
                    entry[2] = None
                    self._now = entry[0]
                    self._pos = entry[1]
                    processed += 1
                    args = entry[3]
                    if args:
                        fn(*args)
                    else:
                        fn()
                elif self._single is None and not ready:
                    # Natural drain: the clock points that never fired
                    # come due, then the watchdog hooks get a look.  A
                    # hook may raise, or schedule new events (resuming).
                    self._busy = False
                    if self._horizon > self._now:
                        self._now = self._horizon
                    self._pos = self._seq
                    self._events_processed = processed
                    if not self._drain_hooks:
                        return
                    for hook in list(self._drain_hooks):
                        hook(self)
                    processed = self._events_processed
                    if not heap and not ready and self._single is None:
                        return
        finally:
            self._events_processed = processed

    def _run_controlled(self, max_events: Optional[int]) -> None:
        """The exploration loop: every live event due at the earliest
        pending instant is gathered into a *batch*, and the installed
        schedule source picks which batch member fires next.

        The batch is built in canonical (time, seq) order — ready-deque
        entries first (they drain before the heap in the baseline
        loops), then heap entries in seq order — and events a fired
        callback schedules *at the current instant* are appended at the
        end, exactly where their fresh seqs would place them.  Choosing
        index 0 at every point therefore replays the baseline schedule
        bit for bit; any other index is a legal alternative interleaving
        of the same instant.

        While the batch is non-empty its members are due *now* but live
        in no container, so :meth:`quiescent_at_now` and
        :attr:`pending_events` account for it explicitly, and
        :meth:`cancel` treats batch members like queued entries (mark +
        stale count; the batch filter repays the counter)."""
        source = self._schedule_source
        heap = self._heap
        ready = self._ready
        batch = self._batch
        budget = max_events
        try:
            while True:
                if not batch:
                    # Open the next instant: flush the staging slot, then
                    # collect everything live due at the minimum time.
                    single = self._single
                    if single is not None:
                        self._seq = single[1] = self._seq + 1
                        _heappush(heap, single)
                        self._single = None
                    while ready:
                        e = ready.popleft()
                        if e[2] is None:
                            self._stale -= 1
                        else:
                            batch.append(e)
                    if batch:
                        t = self._now
                    else:
                        while heap and heap[0][2] is None:
                            _heappop(heap)
                            self._stale -= 1
                        if not heap:
                            # Natural drain: same hook protocol as the
                            # baseline loop.
                            self._busy = False
                            if not self._drain_hooks:
                                return
                            for hook in list(self._drain_hooks):
                                hook(self)
                            if (not heap and not ready
                                    and self._single is None):
                                return
                            continue
                        t = heap[0][0]
                        self._now = t
                    while heap and heap[0][0] <= t:
                        e = _heappop(heap)
                        if e[2] is None:
                            self._stale -= 1
                        else:
                            batch.append(e)
                # Entries cancelled while parked in the batch.
                for e in batch:
                    if e[2] is None:
                        live = [x for x in batch if x[2] is not None]
                        self._stale -= len(batch) - len(live)
                        batch[:] = live
                        break
                if not batch:
                    continue
                if len(batch) == 1:
                    idx = 0
                else:
                    point = ChoicePoint(
                        "ready", len(batch),
                        labels=tuple(_event_label(e) for e in batch))
                    idx = source.choose(point)
                    if not 0 <= idx < len(batch):
                        raise SimulationError(
                            f"schedule source chose {idx} of "
                            f"{len(batch)} ready alternatives")
                entry = batch.pop(idx)
                if budget is not None:
                    if budget == 0:
                        raise _budget_exhausted(self._now,
                                                self._events_processed)
                    budget -= 1
                self._busy = True
                self._fire(entry)
                # Same-instant events the callback just scheduled sit in
                # the ready deque; fold them onto the batch tail (their
                # seqs are larger than every batched entry's).
                while ready:
                    e = ready.popleft()
                    if e[2] is None:
                        self._stale -= 1
                    else:
                        batch.append(e)
        finally:
            if batch:
                # Interrupted mid-instant (source raised, budget blown):
                # park the batch back in the ready deque so the queue
                # state stays consistent for diagnostics.
                for e in reversed(batch):
                    if e[2] is None:
                        self._stale -= 1
                    else:
                        e[1] = -1
                        ready.appendleft(e)
                batch.clear()
