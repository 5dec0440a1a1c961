"""Wall-clock event loop: the process backend's substrate.

One :class:`RealtimeScheduler` runs per OS process and implements the
:class:`~repro.backend.substrate.Substrate` surface the task system and
transport already consume, with three semantic differences from the
deterministic simulator (DESIGN.md §14):

- **Time is wall time.**  ``now`` is ``time.monotonic()`` seconds since
  construction; ``Delay(dt)`` sleeps for at least ``dt`` of real time.
  ``schedule_at`` with a past deadline clamps to *now* instead of
  raising — between computing a deadline and scheduling it the wall
  clock has genuinely moved, which in virtual time would be a bug.
- **An empty queue means idle, not done.**  The simulator treats a
  drained queue as natural termination; a real process must keep
  serving inbound active messages until the coordinator says stop, so
  the loop parks in :attr:`RealtimeScheduler.progress` (with the time
  to the next timer as the timeout) and only :meth:`stop` ends it.
  Drain hooks are accepted but never fire — quiescence of one process
  proves nothing about the machine.
- **There is no quiet instant.**  ``quiescent_at_now()`` answers False,
  so every task continuation bounces through the queue instead of
  trampolining synchronously; with other processes concurrently posting
  work, "nothing else is runnable right now" is unknowable.

One thread per process runs :meth:`run` and thus every task, AM handler
and timer, and no other runs beside it: the conduit makes progress *on*
the loop (DESIGN.md §14.5).  The worker wires its conduit's ``flush``
and ``progress`` into :attr:`RealtimeScheduler.flush` and
:attr:`RealtimeScheduler.progress`.  When the ready deque runs dry and a
timer is already due, the loop only flushes — writes what was sent —
and runs the timer.  It polls — writes, then dispatches what has
arrived — every :data:`_PROGRESS_EVERY` ready events, and whenever
nothing is runnable or due; if nothing became runnable, it parks in
``progress`` until the next timer or arrival.
"""

from __future__ import annotations

import select
import time
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.engine import OwnedTasks, run_loop_gc

#: Scheduled entry: ``[time, seq, fn, args]``; ``fn is None`` = cancelled.
Event = List[Any]

#: Ready events run back to back before the conduit is polled: bounds
#: how long an inbound frame waits while the loop is busy — behind a
#: chain of continuations that never empties the deque, or timers that
#: are always due (the argument of ``sim.tasks._TRAMPOLINE_CAP``).
_PROGRESS_EVERY = 64


def _nothing() -> None:
    """The flush of a loop with no conduit attached."""


class RealtimeScheduler(OwnedTasks):
    """A minimal wall-clock run loop satisfying the Substrate protocol."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._heap: list[Event] = []
        self._ready: deque[Event] = deque()
        self._seq = 0
        self._events_processed = 0
        self._task_seq = 0
        self._init_task_registry()
        self._stop_flag = False
        #: ``progress(timeout)``, called at every progress point of
        #: :meth:`run` with 0.0 (work is waiting), the seconds to the
        #: next timer, or None (idle until something arrives).  With no
        #: conduit attached it only sleeps
        self.progress: Callable[[Optional[float]], Any] = partial(
            select.select, (), (), ())
        #: ``flush()``, called where the loop runs a due timer without
        #: polling: writes what was sent, waits for nothing.  With no
        #: conduit attached there is nothing to write
        self.flush: Callable[[], Any] = _nothing

    # ------------------------------------------------------------------ #
    # Substrate surface
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._ready) + len(self._heap)

    def next_task_id(self) -> int:
        self._task_seq += 1
        return self._task_seq

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        if delay <= 0.0:
            return self.call_soon(fn, *args)
        self._seq += 1
        entry: Event = [self.now + delay, self._seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, t: float, fn: Callable, *args: Any) -> Event:
        # Past deadlines are legal on a wall clock: clamp to "due now".
        return self.schedule(t - self.now, fn, *args)

    def call_soon(self, fn: Callable, *args: Any) -> Event:
        # The ready deque is FIFO: nothing reads a ready entry's time or
        # its tie-breaking seq, so neither is stamped.
        entry: Event = [0.0, 0, fn, args]
        self._ready.append(entry)
        return entry

    def cancel(self, entry: Event) -> None:
        entry[2] = None

    def quiescent_at_now(self) -> bool:
        return False

    def add_drain_hook(self, fn: Callable) -> None:
        """Accepted, never fired (see the module docstring)."""

    @property
    def schedule_source(self) -> Optional[Any]:
        return None

    def set_schedule_source(self, source: Optional[Any]) -> None:
        if source is not None:
            raise ValueError(
                "schedule exploration requires the deterministic "
                "simulator (backend='sim'); a wall-clock scheduler has "
                "no replayable tie-breaks"
            )

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #

    def stop(self) -> None:
        """End :meth:`run` after the current callback."""
        self._stop_flag = True

    def run(self) -> None:
        """Serve ready callbacks, due timers and the conduit until
        :meth:`stop`; parks in :attr:`progress` when idle.  Runs under
        the simulator's collector policy (``run_loop_gc``)."""
        with run_loop_gc():
            self._run()

    def _run(self) -> None:
        ready = self._ready
        heap = self._heap
        burst = _PROGRESS_EVERY
        while not self._stop_flag:
            if ready and burst:
                burst -= 1
                entry = ready.popleft()
                fn = entry[2]
                if fn is not None:
                    self._events_processed += 1
                    fn(*entry[3])
                continue
            if burst:
                # Dry, inside the burst: with a timer already due, write
                # what was sent (the peer must not wait on our poll) and
                # run the timer; the poll waits for the burst's end.
                now = time.monotonic() - self._t0
                while heap and (heap[0][0] <= now or heap[0][2] is None):
                    ready.append(heappop(heap))
                if ready:
                    self.flush()
                    continue
            # A progress point: write, poll, dispatch; then due timers
            # (and cancelled heads, which the ready deque skips) move
            # over; with nothing runnable after both — and no shutdown
            # frame among what the poll dispatched — park.
            burst = _PROGRESS_EVERY
            self.progress(0.0)
            if not ready:
                now = time.monotonic() - self._t0
                while heap and (heap[0][0] <= now or heap[0][2] is None):
                    ready.append(heappop(heap))
                if not ready and not self._stop_flag:
                    self.progress(heap[0][0] - now if heap else None)
