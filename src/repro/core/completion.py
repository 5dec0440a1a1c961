"""The four completion points of an asynchronous operation (paper Fig. 1).

Every asynchronous operation in the runtime returns an :class:`AsyncOp`
carrying one future per completion point:

- ``initiated``     — the operation has been queued for execution
  (always resolved by the time the initiating call returns);
- ``local_data``    — inputs on the initiator may be overwritten, outputs
  on the initiator may be read (what ``cofence`` waits for);
- ``local_op``      — all pair-wise communication involving the initiator
  is complete (what an attached event signals);
- ``global_done``   — the operation is complete on every participating
  image (what ``finish`` guarantees for implicit operations).

The invariant ``local_data ≤ local_op ≤ global_done`` (in time) holds for
every operation; tests assert it.

A collective's handle stops at the local points: a member cannot observe
when the other members are done, so its ``global_done`` is the same
future as its ``local_op`` (waiting on the handle never hangs, and means
"my part is over").  The global guarantee for a collective is what an
enclosing ``finish`` gives, by counting its tree messages.

An operation that *is* one message (a spawn, an unpredicated put) does
not own futures at all: its handle adopts the sent
:class:`~repro.net.transport.Message`'s ``injected`` and ``delivered``,
so its completion is observed where the transport resolves it and a
transport failure (``PeerFailedError``) shows on the handle with no
forwarding step.  Only operations whose completion is composed from
several messages, or that hand out their handle before any message
exists (predicated copies, gets, collectives), allocate their own.

The handle is also what an implicitly completed operation leaves on its
initiating :class:`~repro.runtime.memory_model.Activation`: ``cofence``
reads its ``classes`` and ``local_data``, ``event_notify`` its
``started`` and ``global_done``.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.tasks import Future

#: the one already-resolved future: every handle's ``initiated`` point
#: (a handle only exists once its initiating call has queued the
#: operation), and any other point that is complete before the handle is
#: returned
RESOLVED = Future("resolved")
RESOLVED.set_result(None)

class AsyncOp:
    """Handle for one asynchronous operation.

    ``classes`` is the operation's local effect, the set of
    :data:`~repro.runtime.memory_model.READ` /
    :data:`~repro.runtime.memory_model.WRITE` a ``cofence`` filters on.
    Each completion point not passed in gets a future of its own; passing
    the same future for two points states that they coincide (a put's
    delivery ack is both its ``local_op`` and its ``global_done``)."""

    __slots__ = ("kind", "local_data", "local_op", "global_done", "classes",
                 "started", "rc")

    #: every handle is returned by the call that queued its operation
    initiated = RESOLVED

    def __init__(self, kind: str, classes: frozenset,
                 local_data: Optional[Future] = None,
                 local_op: Optional[Future] = None,
                 global_done: Optional[Future] = None):
        self.kind = kind
        self.local_data = (local_data if local_data is not None
                           else Future("local_data"))
        self.local_op = (local_op if local_op is not None
                         else Future("local_op"))
        self.global_done = (global_done if global_done is not None
                            else Future("global_done"))
        self.classes = classes
        #: False while the operation is gated behind an unposted predicate
        #: event; such an op is ordered by its own predicate, not by a
        #: release — event_notify must not wait for it (that would
        #: deadlock a notify that *is* the predicate)
        self.started = True
        #: race-detector clock material (analysis.racecheck), when enabled
        self.rc = None

    def __repr__(self) -> str:
        stage = ("global" if self.global_done.done else
                 "local_op" if self.local_op.done else
                 "local_data" if self.local_data.done else
                 "initiated")
        return f"<AsyncOp {self.kind} @{stage}>"


def chain(src: Future, dst: Future) -> None:
    """Resolve ``dst`` when ``src`` resolves (value forwarded) — for a
    completion point that was handed out before the future it depends on
    existed."""
    def forward(f: Future) -> None:
        exc = f.exception()
        if exc is not None:
            dst.set_exception(exc)
        else:
            dst.set_result(f.result())
    src.add_done_callback(forward)
