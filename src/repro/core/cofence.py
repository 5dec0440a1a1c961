"""The ``cofence`` construct (paper §III-B).

``cofence(downward=..., upward=...)`` demands *local data completion* of
the implicitly-synchronized asynchronous operations initiated by the
current activation: on return, the inputs of those operations may be
overwritten and their outputs may be read.

Arguments (both optional, mirroring SPARC V9 MEMBAR's ordering masks):

- ``downward`` — which class of earlier operations (``READ``, ``WRITE``,
  ``ANY``) may defer their completion until *after* the fence.  The fence
  does not wait for operations of an allowed class.  Default: none pass;
  the fence waits for everything.
- ``upward`` — which class of *later* operations may be initiated before
  the fence completes.  The simulator initiates operations in program
  order, so this argument cannot change execution here; it is validated
  and recorded (a per-class stats counter, and the fence-class annotation
  handed to the race detector) so programs carry the same information
  they would on a reordering implementation (tests check the reorder
  oracle's legality rules instead).

An operation that both reads and writes local data only passes a
direction that allows *both* classes (§III-B: the unconstrained action
may not overtake the constrained one).

Inside a shipped function a cofence is dynamically scoped: it only covers
operations launched by that function (§III-B.3) — which falls out of
pending operations living on the activation.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.tasks import all_of
from repro.runtime.memory_model import allowed_set


def cofence(ctx, downward: Optional[str] = None,
            upward: Optional[str] = None) -> Generator[Any, Any, None]:
    """Block until every constrained pending implicit operation of this
    activation is local-data complete."""
    down_allowed = allowed_set(downward)
    if upward is not None:
        allowed_set(upward)  # validated though it changes nothing here
    machine = ctx.machine
    counts = machine.stats.counts
    counts["cofence.calls"] += 1
    if upward is not None:
        counts[f"cofence.upward.{upward}"] += 1
    waits = ctx.fence_waits(down_allowed)
    if waits:
        counts["cofence.waited"] += len(waits)
        # One future is waited on itself: the task's wake-up then sits
        # in its callback list where all_of's would have.
        yield waits[0] if len(waits) == 1 else all_of(waits, "cofence")
    if machine.racecheck is not None:
        machine.racecheck.cofence_joined(ctx, down_allowed, downward,
                                         upward)
