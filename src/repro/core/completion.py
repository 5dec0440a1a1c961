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
not own futures at all: :meth:`AsyncOp.of_message` adopts the transport
receipt's, so its completion is observed where the transport resolves it
and a transport failure (``PeerFailedError``) shows on the handle with no
forwarding step.  Only operations whose completion is composed from
several messages, or that hand out their handle before any message
exists (predicated copies, gets, collectives), allocate their own.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.tasks import Future
from repro.runtime.memory_model import PendingOp

#: the one already-resolved future: every handle's ``initiated`` point
#: (a handle only exists once its initiating call has queued the
#: operation), and any other point that is complete before the handle is
#: returned
RESOLVED = Future("resolved")
RESOLVED.set_result(None)


class AsyncOp:
    """Handle for one asynchronous operation.

    Each completion point not passed in gets a future of its own; passing
    the same future for two points states that they coincide (a put's
    delivery ack is both its ``local_op`` and its ``global_done``)."""

    __slots__ = ("kind", "initiated", "local_data", "local_op",
                 "global_done", "pending_op", "rc")

    def __init__(self, kind: str, local_data: Optional[Future] = None,
                 local_op: Optional[Future] = None,
                 global_done: Optional[Future] = None):
        self.kind = kind
        self.initiated = RESOLVED
        self.local_data = (local_data if local_data is not None
                           else Future("local_data"))
        self.local_op = (local_op if local_op is not None
                         else Future("local_op"))
        self.global_done = (global_done if global_done is not None
                            else Future("global_done"))
        #: the record registered on the initiating activation when the
        #: operation uses implicit completion; None for explicit ops
        self.pending_op: Optional[PendingOp] = None
        #: race-detector clock material (analysis.racecheck), when enabled
        self.rc = None

    @classmethod
    def of_message(cls, kind: str, receipt) -> "AsyncOp":
        """The handle of an operation that is exactly one acknowledged
        message: source-buffer injection is its local data completion,
        the delivery ack its local operation and global completion."""
        return cls(kind, receipt.injected, receipt.delivered,
                   receipt.delivered)

    def make_pending(self, reads_local: bool, writes_local: bool,
                     released: Optional[Future] = None,
                     op_id: Optional[int] = None) -> PendingOp:
        """Build (and remember) the pending-op record for this operation."""
        self.pending_op = PendingOp(
            self.kind, reads_local, writes_local,
            local_data=self.local_data, local_op=self.local_op,
            released=released if released is not None else self.global_done,
            op_id=op_id,
        )
        return self.pending_op

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
