"""GASNet-shim conduit transport for the process backend.

:class:`ProcessTransport` is the :class:`~repro.net.transport.Transport`
(DESIGN.md §14.2) that moves real bytes; the send gate, the membership
view, the quarantine and the hooks are the base class's, shared with
the simulator's ``Network``.  Each active message is pickled with the
wire format (:mod:`repro.backend.wire`) and handed to the conduit as one
frame; the sender's run loop writes it at its next flush and the
destination's, at one of its polls, calls :meth:`deliver_frame`, which
unpickles and dispatches it through the same ``AMLayer._on_deliver`` the
simulator uses.

Reliability: a pipe never drops or reorders, so there is no
retransmission machinery; ``want_ack`` sends are tracked in an
awaiting-ack table and an explicit ack frame — queued *after* the deliver
callback has run, matching the simulator's ack ordering — resolves
``Message.delivered``.  What CAN fail is the peer process itself: a
killed worker never acks, and when the failure detector confirms it
dead the messages awaiting an ack fail with :class:`PeerFailedError` — the
exact signal the finish/recovery layer reconciles on in the simulator.
"""

from __future__ import annotations

from repro.net.transport import Message, PeerFailedError, Transport
from repro.backend.wire import dump_frame, load_frame


class ProcessTransport(Transport):
    """One per worker process; world-addressed send/receive over the
    conduit (``rank``, ``put(dst, frame)`` and, if frames can wait in
    it, ``pending()``)."""

    def __init__(self, sim, params, stats, conduit, machine, faults=None):
        if faults is not None:
            raise ValueError(
                "fault injection requires the deterministic simulator "
                "(backend='sim'): the conduit transport has no modelled "
                "wire to drop, duplicate or delay a frame on")
        super().__init__(sim, params, stats)
        self.conduit = conduit
        self.local_rank: int = conduit.rank
        #: inbound frames unpickle against this machine's registries
        #: and dispatch through its AM layer
        self.machine = machine
        #: (dst, seq) -> a transmitted want_ack message
        self._awaiting: dict[tuple, Message] = {}

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #

    def _transmit(self, msg: Message, best_effort: bool = False,
                  pend=None) -> None:
        self.stats.incr("net.bytes", msg.size)
        if msg.dst == self.local_rank:
            # Loopback: no pickling (reference semantics, same as the
            # simulator's local delivery) but still asynchronous.
            self.sim.call_soon(self._deliver_local, msg)
            return
        blob = dump_frame(self.machine, (msg.kind, msg.size, msg.handler,
                                         msg.args, msg.payload))
        if msg.delivered is not None:
            self._awaiting[(msg.dst, msg.seq)] = msg
        self.conduit.put(msg.dst, ("am", self.local_rank, msg.seq,
                                   msg.delivered is not None, blob))
        self._injected(msg)

    @staticmethod
    def _injected(msg: Message) -> None:
        """The source buffer is the caller's again — the frame holds its
        own copy, or the loopback delivery has run: ``injected`` is over
        (a clock point at this moment, DESIGN.md §3.3)."""
        if msg._at is False:
            msg.injected.set_result(None)  # read before this moment
        else:
            msg._at = True

    def _deliver_local(self, msg: Message) -> None:
        self._injected(msg)
        if self.on_delivery is not None:
            self.on_delivery(msg.src, msg.dst)
        if msg.on_deliver is not None:
            msg.on_deliver(msg)
        if msg.delivered is not None and not msg.delivered.done:
            self._settle(msg)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def deliver_frame(self, item: tuple) -> None:
        """Dispatch one conduit frame.  Called at a poll of the run
        loop; a frame that fails to decode raises out of the loop so
        the worker reports a structured error instead of hanging."""
        tag = item[0]
        if tag == "am":
            _, src, seq, want_ack, blob = item
            kind, size, handler, args, payload = load_frame(self.machine,
                                                            blob)
            msg = Message(src, self.local_rank, size, payload, kind, None,
                          handler, args)
            msg.seq = seq
            self.stats.incr("net.delivered")
            if self.on_delivery is not None:
                self.on_delivery(src, self.local_rank)
            self.machine.am._on_deliver(msg)
            if want_ack:
                # After the deliver callback, like the simulator's
                # reliable path: the ack certifies delivery, not receipt.
                self.conduit.put(src, ("ack", self.local_rank, seq))
        elif tag == "ack":
            _, src, seq = item
            msg = self._awaiting.pop((src, seq), None)
            if msg is not None and not msg.delivered.done:
                self._settle(msg)

    # ------------------------------------------------------------------ #

    def _peer_down(self, image: int, suspected: bool) -> None:
        """A peer process died: its acks will never come.  Failing the
        messages awaiting them is what turns an OS-level kill into the same
        :class:`PeerFailedError` signal the recovery ledger re-executes
        on (``spawn._recover_lost``)."""
        verdict = "confirmed dead" if suspected else "crashed"
        for key in [k for k in self._awaiting if k[0] == image]:
            msg = self._awaiting.pop(key)
            self.stats.incr("net.peer_failed")
            if not msg.delivered.done:
                self._settle(msg, PeerFailedError(
                    f"ack for {msg!r} abandoned: image "
                    f"{image} is {verdict}", peer=image,
                    suspected=suspected))

    def _in_flight(self) -> tuple[list, list]:
        # A wedged pipe is not a silent peer: say which it is.
        pending = getattr(self.conduit, "pending", dict)()
        return [], [(msg, "queued, not yet written"
                     if msg.dst in pending else "awaiting ack")
                    for msg in self._awaiting.values()]
