"""The runtime/substrate interface split (DESIGN.md §14).

Everything above the scheduler — tasks, futures, conditions, the AM
layer, finish counting, collectives, the failure detector — drives its
substrate through the narrow surface captured here by
:class:`Substrate`: schedule a callback (now, later, or at an absolute
time), create/register tasks, read the clock, and kill an image's
tasks.  Two implementations exist:

- :class:`repro.sim.engine.Simulator` — the single-threaded
  deterministic discrete-event engine (virtual time, the oracle);
- :class:`repro.backend.realtime.RealtimeScheduler` — a wall-clock
  event loop, one thread per OS process, that also flushes and polls
  the conduit (the true-parallel backend).

``Machine(backend="sim"|"process")`` selects between them uniformly;
the operation modules never branch on which one they run over.

This module is intentionally import-light (typing only): it is imported
by both the simulator side and the process side, and must never create
an import cycle.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Protocol, runtime_checkable

#: A scheduled entry: ``[time, seq, fn, args]``; ``fn is None`` marks a
#: cancelled entry (identical to ``repro.sim.engine.Event``).
Event = List[Any]


@runtime_checkable
class Substrate(Protocol):
    """What the runtime layers require of an execution substrate.

    The protocol is exactly the surface of the PR-3 simulator that
    ``sim/tasks.py``, ``net/transport.py`` and ``runtime/program.py``
    were already consuming; extracting it is what lets the process
    backend slot in without the operation modules changing.
    """

    # -- clock and counters -------------------------------------------- #

    @property
    def now(self) -> float:
        """Current time: virtual seconds (sim) or wall seconds since
        scheduler construction (process backend)."""
        ...

    @property
    def events_processed(self) -> int: ...

    @property
    def pending_events(self) -> int: ...

    # -- scheduling ---------------------------------------------------- #

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event: ...

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event: ...

    def call_soon(self, fn: Callable, *args: Any) -> Event: ...

    def cancel(self, entry: Event) -> None: ...

    def quiescent_at_now(self) -> bool:
        """True when nothing else is runnable at the current instant —
        the budget gate for synchronous task continuations.  A real-time
        substrate answers False: with other processes genuinely
        concurrent, there is no such thing as a provably quiet instant,
        so every continuation goes through the queue."""
        ...

    # -- tasks --------------------------------------------------------- #

    def next_task_id(self) -> int: ...

    def _register_task(self, task: Any) -> None: ...

    def kill_owner(self, owner: int) -> int: ...

    #: the generators of killed tasks, kept unfinalized (``Task.kill``)
    _abandoned: list

    # -- lifecycle ----------------------------------------------------- #

    def add_drain_hook(self, fn: Callable) -> None: ...

    def set_schedule_source(self, source: Optional[Any]) -> None: ...

    @property
    def schedule_source(self) -> Optional[Any]: ...
