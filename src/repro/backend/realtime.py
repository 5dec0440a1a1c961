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
  the loop parks on a condition variable (with the next timer deadline
  as the timeout) and only :meth:`stop` ends it.  Drain hooks are
  accepted but never fire — quiescence of one process proves nothing
  about the machine.
- **There is no quiet instant.**  ``quiescent_at_now()`` answers False,
  so every task continuation bounces through the queue instead of
  trampolining synchronously; with other processes concurrently posting
  work, "nothing else is runnable right now" is unknowable.

Thread model: exactly one thread (the process main thread) runs
:meth:`run` and thus every task, AM handler and timer — the runtime
above needs no locks, same as under the simulator.  Other threads (the
conduit progress thread, the control listener) inject work only through
:meth:`post`, the single thread-safe entry point.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

#: Scheduled entry: ``[time, seq, fn, args]``; ``fn is None`` = cancelled.
Event = List[Any]


class RealtimeScheduler:
    """A minimal wall-clock run loop satisfying the Substrate protocol."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._heap: list[Event] = []
        self._ready: deque[Event] = deque()
        self._seq = 0
        self._events_processed = 0
        self._task_seq = 0
        self._tasks: list[Any] = []
        # Cross-thread injection: guarded by the condition's lock; the
        # loop moves entries to `_ready` before running them.
        self._cv = threading.Condition()
        self._inbox: deque[tuple] = deque()
        self._stop_flag = False

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
        return len(self._ready) + len(self._heap) + len(self._inbox)

    def next_task_id(self) -> int:
        self._task_seq += 1
        return self._task_seq

    def _register_task(self, task: Any) -> None:
        self._tasks.append(task)

    def kill_owner(self, owner: int) -> int:
        killed = 0
        keep = []
        for task in self._tasks:
            if task._killed or task.done_future.done:
                continue
            if task.owner == owner:
                task.kill()
                killed += 1
            else:
                keep.append(task)
        self._tasks = keep
        return killed

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
        self._seq += 1
        entry: Event = [self.now, self._seq, fn, args]
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
    # Cross-thread injection and the run loop
    # ------------------------------------------------------------------ #

    def post(self, fn: Callable, *args: Any) -> None:
        """Enqueue ``fn(*args)`` from any thread; wakes the loop."""
        with self._cv:
            self._inbox.append((fn, args))
            self._cv.notify()

    def stop(self) -> None:
        """End :meth:`run` after the current callback; thread-safe."""
        with self._cv:
            self._stop_flag = True
            self._cv.notify()

    def _drain_inbox(self) -> None:
        # Caller holds no lock; take it briefly and move everything over.
        with self._cv:
            while self._inbox:
                fn, args = self._inbox.popleft()
                self.call_soon(fn, *args)

    def run(self) -> None:
        """Serve ready callbacks, due timers and posted work until
        :meth:`stop`; parks when idle."""
        ready = self._ready
        heap = self._heap
        while not self._stop_flag:
            if self._inbox:
                self._drain_inbox()
            if ready:
                entry = ready.popleft()
                fn = entry[2]
                if fn is not None:
                    self._events_processed += 1
                    fn(*entry[3])
                continue
            # Prune cancelled heap heads, then fire anything due.
            while heap and heap[0][2] is None:
                heappop(heap)
            if heap and heap[0][0] <= self.now:
                entry = heappop(heap)
                self._events_processed += 1
                entry[2](*entry[3])
                continue
            with self._cv:
                if self._stop_flag or self._inbox:
                    continue
                timeout = heap[0][0] - self.now if heap else None
                if timeout is not None and timeout <= 0.0:
                    continue
                self._cv.wait(timeout)
