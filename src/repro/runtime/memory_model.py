"""The relaxed memory model: pending-op tracking and reorder legality.

CAF 2.0 uses a relaxed memory model (paper §III): asynchronous operations,
coarray reads/writes and event notify/wait are unordered unless a
synchronization construct orders them.  This module supplies:

- operation classes — whether an operation *reads* and/or *writes*
  local memory (the classes ``cofence`` filters on);
- :class:`Activation` — one dynamic scope of execution (an image's main
  program, or one shipped-function execution); the runtime's are
  :class:`~repro.runtime.image.Image` objects.  An implicitly completed
  operation's handle (:class:`~repro.core.completion.AsyncOp`) stays on
  the activation that initiated it until it completes, so ``cofence``
  inside a shipped function only sees operations launched by that
  function (paper §III-B.3, "dynamic scoping");
- :class:`ReorderOracle` — a pure-logic encoding of the legality rules of
  §III (which operations may hoist above / sink below a fence, an
  event_notify (release) or an event_wait (acquire)).  The simulator
  executes in program order, so the oracle states the model rather than
  running it: property tests check the rules' algebra, and the race
  detector's verdicts are compared against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.tasks import Future

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.completion import AsyncOp
    from repro.runtime.image import ImageState


# --------------------------------------------------------------------- #
# Operation classes
# --------------------------------------------------------------------- #

#: operation reads local memory (e.g. an async copy out of a local buffer)
READ = "read"
#: operation writes local memory (e.g. an async copy into a local buffer)
WRITE = "write"
#: both classes — the wildcard argument value for cofence
ANY = "any"

_VALID_CLASSES = frozenset({READ, WRITE})


#: (reads_local, writes_local) -> the operation's class set
_CLASS_SETS = {
    (False, False): frozenset(),
    (True, False): frozenset({READ}),
    (False, True): frozenset({WRITE}),
    (True, True): _VALID_CLASSES,
}


def classes_of(reads_local: bool, writes_local: bool) -> frozenset:
    return _CLASS_SETS[bool(reads_local), bool(writes_local)]


def allowed_set(arg: Optional[str]) -> frozenset:
    """Map a cofence argument (None/READ/WRITE/ANY) to the set of classes
    allowed to pass the fence in that direction."""
    if arg is None:
        return frozenset()
    if arg == ANY:
        return _VALID_CLASSES
    if arg in _VALID_CLASSES:
        return frozenset({arg})
    raise ValueError(
        f"invalid cofence class {arg!r}; expected READ, WRITE, ANY or None"
    )


def may_pass(op_classes: frozenset, allowed: frozenset) -> bool:
    """An operation passes a fence direction only if *every* class of its
    local effect is allowed (paper §III-B: an op that both reads and
    writes is constrained by the stricter class)."""
    return op_classes <= allowed


# --------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------- #

class Activation:
    """A dynamic scope: the unit `cofence` and finish-counting bind to.

    Every image's main program is one activation; every shipped-function
    execution gets a fresh one (carrying the finish frame of its spawner).

    Slotted: one activation exists per main program and per in-flight
    shipped function, which at paper-scale image counts makes this one
    of the hottest allocations in the runtime (DESIGN.md §13).
    """

    __slots__ = ("image_state", "finish_frame", "name", "_pending",
                 "_prune_at", "rc", "cause")

    #: registrations before the first amortised prune
    _PRUNE_MIN = 32

    def __init__(self, image_state: "ImageState",
                 finish_frame=None, name: str = "main"):
        self.image_state = image_state
        self.finish_frame = finish_frame
        self.name = name
        self._pending: list[AsyncOp] = []
        self._prune_at = self._PRUNE_MIN
        #: race-detector thread clock (analysis.racecheck), when enabled
        self.rc = None
        #: the finish receive stamp of the message that started this
        #: activation (shipped functions only; None for main programs).
        #: Sends issued by the activation inherit their epoch tag from
        #: it — see FinishFrame.on_send's causal classification.
        self.cause = None

    def current_frame(self):
        """The finish frame this activation's implicit ops count toward:
        a shipped function is pinned to its spawner's frame; the main
        activation tracks the image's innermost open finish block."""
        if self.finish_frame is not None:
            return self.finish_frame
        stack = self.image_state.finish_stack
        return stack[-1] if stack else None

    @property
    def in_shipped_function(self) -> bool:
        return self.finish_frame is not None

    # -- registration ---------------------------------------------------- #

    def register(self, op: AsyncOp) -> AsyncOp:
        """Record the handle of an implicitly completed operation until
        it completes.  Completed handles are dropped here too, whenever
        the list has doubled since the last sweep: an activation that
        only ever initiates (spawns under one long ``finish``, never a
        ``cofence`` or ``event_notify``) would otherwise keep every
        operation's handle and futures alive until it returns."""
        pending = self._pending
        pending.append(op)
        if len(pending) >= self._prune_at:
            self.prune()
        return op

    def prune(self) -> None:
        """Drop the handles of completed operations."""
        self._sweep()

    @property
    def pending(self) -> list[AsyncOp]:
        self.prune()
        return list(self._pending)

    # -- what fences wait on ---------------------------------------------- #

    def fence_waits(self, downward_allowed: frozenset) -> list[Future]:
        """Local-data futures a cofence with this downward filter must
        await: every pending implicit op whose class set is NOT allowed
        to defer completion past the fence."""
        return self._sweep(fence=downward_allowed)

    def release_waits(self) -> list[Future]:
        """Futures an event_notify must await so that the notification
        cannot overtake the remote effects of earlier implicit ops: each
        one's ``global_done``.  Predicate-gated ops that have not started
        are exempt (see :attr:`AsyncOp.started`)."""
        return self._sweep(release=True)

    def _sweep(self, fence: Optional[frozenset] = None,
               release: bool = False) -> list[Future]:
        """One pass over the pending handles: drop the completed ones
        and collect what a fence with downward filter ``fence``, or a
        release, waits for."""
        pending = self._pending
        if not pending:
            return []
        keep = []
        waits = []
        for op in pending:
            # A settled point answers from ``_done``; only a pending one
            # (perhaps a clock point come due) asks the ``done`` property.
            local = op.local_data
            local_done = local._done or local.done
            if local_done:
                done = op.global_done
                if done._done or done.done:
                    continue
            keep.append(op)
            if fence is not None:
                # may_pass, inlined: every class of the op is allowed
                if not local_done and not op.classes <= fence:
                    waits.append(op.local_data)
            elif release and op.started and not op.global_done.done:
                waits.append(op.global_done)
        self._pending = keep
        self._prune_at = max(self._PRUNE_MIN, 2 * len(keep))
        return waits


# --------------------------------------------------------------------- #
# The reorder-legality oracle
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class OpItem:
    """An asynchronous operation in an abstract program trace."""
    name: str
    reads_local: bool = False
    writes_local: bool = False

    @property
    def classes(self) -> frozenset:
        return classes_of(self.reads_local, self.writes_local)


@dataclass(frozen=True)
class FenceItem:
    """A cofence with its two direction arguments."""
    downward: Optional[str] = None
    upward: Optional[str] = None


@dataclass(frozen=True)
class NotifyItem:
    """event_notify — release semantics (§III-B.4a)."""


@dataclass(frozen=True)
class WaitItem:
    """event_wait — acquire semantics (§III-B.4b)."""


class ReorderOracle:
    """Pairwise legality of moving operations across synchronization items.

    Two questions, matching the two halves of Fig. 1's discussion:

    - may an operation *before* the item defer its completion until after
      it (``may_sink``)?
    - may an operation *after* the item be initiated before it
      (``may_hoist``)?
    """

    @staticmethod
    def may_sink(op: OpItem, item) -> bool:
        if isinstance(item, FenceItem):
            return may_pass(op.classes, allowed_set(item.downward))
        if isinstance(item, NotifyItem):
            # Release: nothing moves downward past a notify.
            return False
        if isinstance(item, WaitItem):
            # Acquire: earlier operations may complete after the wait.
            return True
        raise TypeError(f"not a synchronization item: {item!r}")

    @staticmethod
    def may_hoist(op: OpItem, item) -> bool:
        if isinstance(item, FenceItem):
            return may_pass(op.classes, allowed_set(item.upward))
        if isinstance(item, NotifyItem):
            # Release is porous upward: later ops may start before it.
            return True
        if isinstance(item, WaitItem):
            # Acquire: nothing after the wait may begin before it.
            return False
        raise TypeError(f"not a synchronization item: {item!r}")
