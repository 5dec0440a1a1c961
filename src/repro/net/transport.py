"""Message transport: NIC injection, wire latency, delivery, acks.

Cost model per message (see :class:`repro.net.topology.MachineParams`):

1. *Injection*: the sender's NIC is a serial resource.  A message starts
   injecting when the NIC frees up and occupies it for
   ``o_send + size / bandwidth``.  When injection ends, the **source buffer
   has been read** — this is the transport-level "local data completion"
   event the `cofence` construct builds on.
2. *Wire*: the message then spends ``wire_latency`` (``self_latency``
   when ``src == dst``) on the wire (optionally jittered, which can reorder messages between a pair —
   the termination detector must tolerate this).
3. *Delivery*: at arrival the receiver is charged ``o_recv`` and the
   message's ``on_deliver`` callback runs.  One arrival is one simulator
   event.
4. *Ack* (optional): a NIC-level acknowledgment arrives back at the sender
   ``ack_latency_factor * latency`` later — the transport-level "local
   operation completion" event.

Fault injection and reliability
-------------------------------
A :class:`~repro.net.faults.FaultPlan` turns the perfect interconnect
hostile: transmissions drop, duplicate, stall at the NIC, and reorder
beyond the baseline jitter.  With ``MachineParams.reliable`` the network
runs a reliable-delivery protocol above the faulty wire:

- every data transmission carries a per-``(src, dst)`` link sequence
  number;
- the receiver suppresses duplicates (``on_deliver`` and AM handlers run
  **exactly once** per message) and acknowledges every copy, so a lost
  ack is healed by the retransmission it provokes;
- the sender retransmits unacknowledged messages on an exponentially
  backed-off timer (``_RTO_SAFETY`` × the message's nominal round trip,
  multiplied by ``_RTO_BACKOFF`` per attempt) and gives up with
  :class:`RetryExhaustedError` after ``retry_cap`` retries.

``Message.delivered`` then means "the protocol-level ack for a delivered
copy reached the sender" — with a clean network this is the same instant
as the NIC-level ack of the unreliable model, so enabling reliability
does not move any completion time until faults actually strike.
Retransmits, drops and duplicates are counted in ``Stats``
(``net.retransmits`` / ``net.drops`` / ``net.dups`` / ...) and surfaced
in the chrome trace as instant events.

Every time handed to the simulator is a plain ``float`` (DESIGN.md §9.6):
message sizes are coerced to ``int`` where the message is built, NIC-free
times live in a list, and jitter factors are drawn in blocks and unboxed.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.sim.engine import ChoicePoint
from repro.sim.tasks import ClockPoint, Future, clock_point

if TYPE_CHECKING:
    from repro.backend.substrate import Substrate
from repro.sim.trace import Stats
from repro.net.topology import MachineParams
from repro.net.faults import FaultPlan

#: Parents of the fallback random streams used when a :class:`Network`
#: is built with ``seed=None``.  Each seedless instance spawns its own
#: child, so two seedless networks in one process draw *different*
#: jitter/fault sequences (they used to share one fixed-seed stream).
_FALLBACK_JITTER_SS = np.random.SeedSequence(0xC0FFEE)
_FALLBACK_FAULT_SS = np.random.SeedSequence(0xFA117)

#: Jitter factors drawn from the generator per refill.
_JITTER_BLOCK = 512

#: First retransmission timeout as a multiple of a message's nominal
#: round trip (injection + wire + ``o_recv`` + ack return).  It must
#: exceed 1 or clean-network sends would spuriously retransmit.
_RTO_SAFETY = 4.0
#: Factor the timeout grows by per retry (exponential backoff).
_RTO_BACKOFF = 2.0


class RetryExhaustedError(RuntimeError):
    """The reliable transport gave up on a message: every transmission
    (original plus ``retry_cap`` retries) was lost.

    Attributes
    ----------
    link:
        The directed link ``(src, dst)`` that gave up.
    lseq:
        The message's per-link sequence number.
    attempts:
        Retransmissions performed before giving up (== ``retry_cap``).
    link_stats:
        Snapshot of per-link retransmit counts at failure time,
        ``{(src, dst): count}`` — the surrounding context for "was this
        link uniquely bad or is the whole fabric lossy?".
    """

    def __init__(self, message: str, link: tuple = (), lseq: int = -1,
                 attempts: int = 0,
                 link_stats: Optional[dict] = None):
        super().__init__(message)
        self.link = link
        self.lseq = lseq
        self.attempts = attempts
        self.link_stats = dict(link_stats or {})


class PeerFailedError(RuntimeError):
    """A send (or a pending retransmission) was abandoned because the
    destination image is crashed or suspected dead.  Carries the peer's
    rank so callers can reconcile instead of blind-retrying."""

    def __init__(self, message: str, peer: int = -1, suspected: bool = False):
        super().__init__(message)
        self.peer = peer
        #: True when abandoned on suspicion (failure detector), False
        #: when the transport observed the link down (confirmed crash).
        self.suspected = suspected


class Message:
    """One message in flight, the record its sender observes it by, and
    the context its active-message handler runs with at the destination.
    ``payload`` is the bulk data, arbitrary Python data whose simulated
    footprint is ``size`` bytes (we model cost, not encoding); an active
    message's header is ``handler`` (a registered name) and ``args`` (the
    handler's positional arguments after the message itself).

    :meth:`Transport.send` numbers the message (``seq``, a per-transport
    counter, so back-to-back simulations in one process number and
    tie-break their messages identically), gives it its completion
    futures and returns it:

    - ``injected`` resolves when the sender NIC has finished reading the
      source buffer (transport local-data completion).  It is built on
      first read, from ``_at``: None while the transport has not timed
      the injection, ``(sim, time, seq)`` once it is a clock point
      (DESIGN.md §3.3), True once it is over, False once it was read
      early — the transport then resolves it by an event;
    - ``delivered`` resolves, at the sender after the ack round trip,
      when the deliver callback has run at the destination — only on a
      send that asked for an ack; None otherwise.

    ``counted`` is None, or the ``(frame, stamp)`` a ``finish`` counted
    the send under: the transport hands it to its ``count_outcome`` hook
    just before it resolves ``delivered``, so the count needs no
    listener of its own on the future.
    """

    __slots__ = ("seq", "src", "dst", "size", "payload", "kind", "on_deliver",
                 "handler", "args", "delivered", "counted", "_at",
                 "_injected")

    def __init__(self, src: int, dst: int, size: int, payload: Any,
                 kind: str = "msg",
                 on_deliver: Optional[Callable[["Message"], None]] = None,
                 handler: Optional[str] = None, args: tuple = ()):
        if type(size) is not int:
            # An ``np.int64`` byte count would turn the injection time,
            # and every event time downstream of it, into ``np.float64``.
            size = operator.index(size)
        if size < 0:
            raise ValueError(f"negative message size {size}")
        self.seq: Optional[int] = None
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.kind = kind
        self.on_deliver = on_deliver
        self.handler = handler
        self.args = args
        self.delivered: Optional[Future] = None
        self.counted: Optional[tuple] = None
        self._at: Any = None
        self._injected: Optional[Future] = None

    @property
    def injected(self) -> Future:
        fut = self._injected
        if fut is None:
            at = self._at
            if at is None:
                self._at = False
                fut = Future("injected")
            elif at is True:
                fut = Future("injected")
                fut._done = True
            else:
                fut = clock_point(at, "injected")
            self._injected = fut
        return fut

    def __repr__(self) -> str:
        seq = "?" if self.seq is None else self.seq
        return (f"<Message #{seq} {self.kind} {self.src}->{self.dst} "
                f"{self.size}B>")


class _PendingSend:
    """Sender-side state of one reliably-sent message."""

    __slots__ = ("msg", "link", "lseq", "attempt", "acked", "timer", "rto0")

    def __init__(self, msg: Message, link: tuple, lseq: int, rto0: float):
        self.msg = msg
        self.link = link
        self.lseq = lseq
        self.attempt = 0          # retransmissions performed so far
        self.acked = False
        self.timer = None
        self.rto0 = rto0


class _RxState:
    """Receiver-side duplicate suppression for one directed link: all
    link seqs below ``upto`` were delivered; ``seen`` holds the
    out-of-order ones above it."""

    __slots__ = ("upto", "seen")

    def __init__(self) -> None:
        self.upto = 0
        self.seen: set[int] = set()

    def record(self, lseq: int) -> bool:
        """Mark ``lseq`` delivered; True if it was already seen."""
        if lseq < self.upto or lseq in self.seen:
            return True
        self.seen.add(lseq)
        while self.upto in self.seen:
            self.seen.discard(self.upto)
            self.upto += 1
        return False


class Transport:
    """The transport contract (DESIGN.md §14.2), written once for every
    conduit underneath: :meth:`send` with its gate on the membership
    view, the two-level membership itself over a capped FIFO quarantine,
    the ``on_delivery`` / ``on_crash`` hooks and the :meth:`diagnostics`
    snapshot.  A subclass supplies what differs: :meth:`_transmit`,
    :meth:`_peer_down` and :meth:`_in_flight`.
    """

    def __init__(self, sim: "Substrate", params: MachineParams,
                 stats: Optional[Stats] = None):
        self.sim = sim
        self.params = params
        self.stats = stats if stats is not None else Stats()
        self._n_images = params.n_images
        #: per-transport message sequence (reproducible across
        #: back-to-back simulations in one process)
        self._msg_seq = itertools.count()
        #: confirmed-crashed images: their inbound and outbound links are
        #: down — in-flight deliveries to/from them are discarded and
        #: pending retransmissions fail with :class:`PeerFailedError`
        self._dead: set[int] = set()
        #: suspected-dead images (shared with the failure detector;
        #: includes every confirmed image).  Sends to a *merely*
        #: suspected peer park in the quarantine; sends to a confirmed
        #: one fail fast.
        self.suspects: set[int] = set()
        #: confirmed-dead images per the failure detector (always a
        #: subset of ``suspects``).  Unlike ``_dead`` — physical crash,
        #: links down — confirmation is a detector *verdict* and can be
        #: wrong; a delivery from a confirmed peer resurrects it.
        self.confirmed: set[int] = set()
        #: quarantined traffic per suspected destination: FIFO of
        #: ``(msg, pend)``, flushed in order on unsuspect,
        #: failed with PeerFailedError on a verdict.  ``pend`` is None
        #: for a fresh send; a transport that retransmits parks its
        #: record of the message at the timer instead (one with
        #: ``acked`` and ``attempt``, which its ``_fail_pending(pend,
        #: exc)`` abandons)
        self._quarantine: dict[int, list] = {}
        #: per-destination quarantine bound; the newest send overflows
        #: with PeerFailedError(suspected=True)
        self.quarantine_cap = 256
        #: liveness piggyback hook: called as ``fn(src, dst)`` whenever a
        #: copy from ``src`` lands at ``dst`` — any delivered
        #: traffic doubles as a heartbeat for the failure detector
        self.on_delivery: Optional[Callable[[int, int], None]] = None
        #: crash trigger hook: called as ``fn(image)`` (via call_soon, so
        #: the triggering send completes first) when the fault plan's
        #: ``crash_after_n_sends`` threshold is reached
        self.on_crash: Optional[Callable[[int], None]] = None
        #: finish accounting hook: called as ``fn(frame, stamp, exc)``
        #: with a message's ``counted`` pair right before its
        #: ``delivered`` resolves (``exc`` None on delivery, else the
        #: failure): :meth:`_settle`
        self.count_outcome: Optional[Callable] = None

    # ------------------------------------------------------------------ #
    # What a subclass supplies
    # ------------------------------------------------------------------ #

    def _transmit(self, msg: Message, best_effort: bool = False,
                  pend=None) -> None:
        """Put one copy of ``msg`` on the wire.  ``pend`` is None, or a
        retransmitting transport's own record of the message (what it
        must offer to park one: see ``_quarantine``)."""
        raise NotImplementedError

    def _peer_down(self, image: int, suspected: bool) -> None:
        """``image`` just died — crashed, or (``suspected``) confirmed
        dead by the detector: settle the traffic already in flight."""
        raise NotImplementedError

    def _in_flight(self) -> tuple[list, list]:
        """For :meth:`diagnostics`: records of lost transmissions, and
        ``(message, note)`` per send still awaiting its ack."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The send gate
    # ------------------------------------------------------------------ #

    def send(self, msg: Message, want_ack: bool = False,
             best_effort: bool = False) -> Message:
        """Enqueue ``msg`` for injection at its source NIC.

        Non-blocking: backpressure, if any, is the flow-control layer's
        job.  Returns ``msg``, with its ``injected`` future and, when
        ``want_ack`` is set, its ``delivered`` one.

        ``best_effort`` bypasses the reliable protocol even when
        ``MachineParams.reliable`` is set: no link seq, no retransmit
        timer, no dedup state — the message is fire-and-forget (failure
        detector heartbeats use this; a reliable heartbeat to a dead
        peer would retransmit forever).
        """
        src = msg.src
        dst = msg.dst
        n = self._n_images
        if not (0 <= src < n and 0 <= dst < n):
            # The one range check a message gets: the NIC table, every
            # latency lookup and the conduit's inboxes trust it.
            raise ValueError(
                f"image pair ({src}, {dst}) out of range for {n} images")
        msg.seq = next(self._msg_seq)
        if want_ack:
            msg.delivered = Future("delivered")
        self.stats.counts["net.msgs"] += 1

        if src != dst and (dst in self._dead or dst in self.suspects):
            if dst in self._dead or dst in self.confirmed:
                # Fail fast: the destination is crashed (or the detector
                # confirmed it dead).  The message surfaces a typed
                # error instead of the protocol spinning to the retry
                # cap against a downed link.
                self._fail_fresh_send(msg)
                return msg
            if not best_effort:
                # Merely suspected: the verdict may be wrong (straggler,
                # partition), so park instead of failing — quarantined
                # traffic flushes on unsuspect, fails on confirmation.
                self._park(msg)
                return msg
            # Fire-and-forget traffic (heartbeats) transmits even toward
            # a suspect: these are exactly the probes that can prove the
            # suspicion wrong.  Parking them would make a mutual
            # suspicion (a healed partition) permanent — no probe could
            # ever cross, so no side could ever unsuspect the other.

        self._transmit(msg, best_effort)
        return msg

    def _settle(self, msg: Message,
                exc: Optional[BaseException] = None) -> None:
        """Resolve ``msg.delivered``, failed with ``exc`` if given.  A
        counted message's outcome is counted first, ahead of every
        listener on the future."""
        counted = msg.counted
        if counted is not None:
            self.count_outcome(counted[0], counted[1], exc)
        if exc is None:
            msg.delivered.set_result(None)
        else:
            msg.delivered.set_exception(exc)

    def _fail_send(self, msg: Message, message: str,
                   suspected: bool) -> None:
        """Abandon a send that was never transmitted: a typed failure on
        ``delivered`` (if anyone is watching), and ``injected`` still
        resolves — the source buffer is the caller's again."""
        self.stats.incr("net.peer_failed")
        if msg.delivered is not None and not msg.delivered.done:
            self._settle(msg, PeerFailedError(
                message, peer=msg.dst, suspected=suspected))
        self.sim.call_soon(msg.injected.set_result, None)

    def _fail_fresh_send(self, msg: Message) -> None:
        crashed = msg.dst in self._dead
        self._fail_send(
            msg, f"send of {msg!r} abandoned: image {msg.dst} is "
            + ("crashed" if crashed else "confirmed dead"),
            suspected=not crashed)

    def _park(self, msg: Message) -> None:
        queue = self._quarantine.setdefault(msg.dst, [])
        if len(queue) >= self.quarantine_cap:
            # Bounded: the newest send overflows with a typed failure
            # rather than the queue growing without limit while the
            # detector makes up its mind.
            self.stats.incr("net.quarantine_overflow")
            self._fail_send(
                msg, f"send of {msg!r} abandoned: quarantine for "
                f"suspected image {msg.dst} is full ({self.quarantine_cap})",
                suspected=True)
            return
        self.stats.incr("net.quarantined")
        queue.append((msg, None))

    # ------------------------------------------------------------------ #
    # Two-level membership (driven by the failure detector)
    # ------------------------------------------------------------------ #

    def mark_suspect(self, image: int) -> None:
        """Level one: the detector suspects ``image``.  New sends toward
        it park in the quarantine; pending retransmissions park at their
        next timer."""
        self.suspects.add(image)

    def unmark_suspect(self, image: int) -> None:
        """The suspicion was wrong (a heartbeat or any delivery arrived):
        lift it and flush the quarantined traffic in FIFO order."""
        self.suspects.discard(image)
        queue = self._quarantine.pop(image, None)
        if not queue:
            return
        self.stats.incr("net.quarantine_flushed", len(queue))
        for msg, pend in queue:
            if pend is not None and (pend.acked or msg.src in self._dead):
                continue
            self._transmit(msg, False, pend)

    def confirm_dead(self, image: int) -> None:
        """Level two: the detector confirms ``image`` dead.  Future
        sends fail fast and every quarantined message fails with
        :class:`PeerFailedError` — the signal the termination layer
        reconciles on."""
        if image in self.confirmed:
            return
        self.suspects.add(image)
        self.confirmed.add(image)
        self._peer_down(image, suspected=True)
        self._fail_quarantined(image, suspected=True)

    def unconfirm(self, image: int) -> None:
        """The verdict was wrong (a confirmed ``image`` delivered): sends
        toward it transmit again."""
        self.confirmed.discard(image)
        self.unmark_suspect(image)

    def mark_dead(self, image: int) -> None:
        """Take ``image``'s links down (the network half of a fail-stop
        crash): future sends toward it fail with
        :class:`PeerFailedError`, and so does its quarantine — toward a
        physically-dead image it can never flush."""
        if image in self._dead:
            return
        self._dead.add(image)
        self.stats.incr("net.images_dead")
        self._peer_down(image, suspected=False)
        self._fail_quarantined(image, suspected=False)

    def _fail_quarantined(self, image: int, suspected: bool) -> None:
        queue = self._quarantine.pop(image, None)
        if not queue:
            return
        verdict = "confirmed dead" if suspected else "crashed"
        for msg, pend in queue:
            if pend is None:
                self._fail_send(
                    msg, f"quarantined send of {msg!r} abandoned: "
                    f"image {image} is {verdict}", suspected)
            elif not pend.acked:
                self._fail_pending(pend, PeerFailedError(
                    f"quarantined retransmission of {msg!r} abandoned "
                    f"after {pend.attempt} attempts: image {image} is "
                    f"{verdict}",
                    peer=image, suspected=suspected))

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def diagnostics(self) -> dict:
        """Snapshot for the liveness watchdog (``finish.stall_report``):
        ``lost`` and ``unacked`` sends as printable records, ``parked``
        sends per suspect, ``pending`` acks per ``(source, kind)``."""
        lost, unacked = self._in_flight()
        pending: dict[tuple, int] = {}
        for msg, _note in unacked:
            key = (msg.src, msg.kind)
            pending[key] = pending.get(key, 0) + 1
        return {
            "lost": list(lost),
            "unacked": [f"{m.kind} #{m.seq} {m.src}->{m.dst} ({note})"
                        for m, note in unacked],
            "parked": {dst: len(queue) for dst, queue
                       in sorted(self._quarantine.items())},
            "pending": pending,
        }


class Network(Transport):
    """The interconnect: owns per-image NIC state and delivers messages.

    Parameters
    ----------
    sim:
        The execution :class:`~repro.backend.substrate.Substrate` the
        cost model schedules against — the deterministic simulator in
        practice (a wall-clock substrate is paired with the other
        :class:`Transport`, not with the simulated wire on real time).
    faults:
        Optional :class:`FaultPlan` consulted on every transmission and
        acknowledgment.
    seed:
        Fallback seed for internally-created random streams (jitter,
        unbound fault plans); a machine passes its master seed so every
        stream varies with ``seed=`` as documented.
    """

    def __init__(self, sim: "Substrate", params: MachineParams,
                 stats: Optional[Stats] = None,
                 jitter_rng: Optional[np.random.Generator] = None,
                 tracer=None,
                 faults: Optional[FaultPlan] = None,
                 seed: Optional[int] = None):
        super().__init__(sim, params, stats)
        self.tracer = tracer
        #: per-image time the NIC injection port next frees
        self._nic_free_at: list[float] = [0.0] * params.n_images
        if params.jitter > 0.0 and jitter_rng is None:
            jitter_rng = np.random.default_rng(
                _FALLBACK_JITTER_SS.spawn(1)[0] if seed is None
                else np.random.SeedSequence(seed))
        self._jitter_rng = jitter_rng
        #: prefetched jitter factors, next draw last (see _transmit).  The
        #: generator must not be shared: a machine hands over a stream
        #: of its pool that nothing else reads.
        self._jitter_draws: list[float] = []
        self.faults = faults
        if faults is not None and faults.seed is None and faults._rng is None:
            faults.bind(np.random.default_rng(
                _FALLBACK_FAULT_SS.spawn(1)[0] if seed is None
                else np.random.SeedSequence(seed)))
        #: message kind -> its ``net.kind.<kind>`` counter key
        self._kind_stat: dict[str, str] = {}
        # reliable-protocol state
        self._tx_next: dict[tuple, int] = {}
        self._tx_pending: dict[tuple, _PendingSend] = {}
        self._rx_states: dict[tuple, _RxState] = {}
        #: short human-readable records of lost transmissions (bounded;
        #: the liveness watchdog quotes these in its diagnostic)
        self.lost: list[str] = []
        #: per-directed-link retransmission counts (RetryExhaustedError
        #: snapshots these; also a chaos diagnostic)
        self.link_retransmits: dict[tuple, int] = {}
        #: schedule-exploration hook (DESIGN.md §10): an object with
        #: ``choose(ChoicePoint) -> int`` plus ``lag_steps``/``lag_slack``
        #: attributes.  When installed, every remote transmission's extra
        #: delivery lag becomes an explicit recorded choice (and the
        #: jitter rng is bypassed); None = baseline timing, untouched.
        self.schedule_source = None

    # ------------------------------------------------------------------ #
    # The wire: one transmission, one arrival (DESIGN.md §9.6)
    # ------------------------------------------------------------------ #

    def _transmit(self, msg: Message, best_effort: bool = False,
                  pend: Optional[_PendingSend] = None) -> None:
        """Put one copy of ``msg`` on the wire: occupy the source NIC,
        then schedule the arrival and, on the reliable path, the
        retransmission timer.

        ``pend`` is the sender-side record when this is a
        retransmission.  It is None for a message's first transmission,
        which also does the once-per-message work: byte and kind
        counters, the ``injected`` event, scripted faults and — unless
        ``best_effort`` — the reliable protocol's sender state.
        (``net.msgs`` is counted in :meth:`send`, so a send that sat in
        quarantine first still counts once.)"""
        p = self.params
        sim = self.sim
        stats = self.stats
        f = self.faults
        src = msg.src
        dst = msg.dst

        # Injection: the source NIC is a serial resource, busy until the
        # source buffer has been read.
        cost = service = p.o_send + msg.size / p.bandwidth
        nic_free_at = self._nic_free_at
        start = nic_free_at[src]
        now = sim.now
        if now > start:
            start = now
        if f is not None:
            released = f.release_time(src, start)
            if released > start:
                stats.incr("net.nic_stalls")
                start = released
            if f.stragglers:
                # A straggling image's NIC serves slower: its heartbeats
                # and data sends alike stretch by the service factor.
                service = cost * f.service_factor(src, start)
        inject_end = nic_free_at[src] = start + service

        lat = p.self_latency if src == dst else p.wire_latency
        scripted = False
        if pend is None:
            counts = stats.counts
            counts["net.bytes"] += msg.size
            kind_stat = self._kind_stat.get(msg.kind)
            if kind_stat is None:
                kind_stat = self._kind_stat[msg.kind] = f"net.kind.{msg.kind}"
            counts[kind_stat] += 1
            seq = sim.reserve(inject_end) if msg._at is None else 0
            if seq:
                msg._at = (sim, inject_end, seq)
            else:
                sim.schedule_at(inject_end, msg.injected.set_result, None)
            if f is not None:
                scripted = f.take_scripted_drop(msg.kind)
                if f.count_send(src) and self.on_crash is not None:
                    # The send that crosses the crash_after_n_sends
                    # threshold is the image's last act: it completes,
                    # then the crash fires.
                    sim.call_soon(self.on_crash, src)
            if p.reliable and not best_effort:
                link = (src, dst)
                lseq = self._tx_next.get(link, 0)
                self._tx_next[link] = lseq + 1
                pend = self._tx_pending[(link, lseq)] = _PendingSend(
                    msg, link, lseq, self._nominal_rto(cost, lat))

        source = self.schedule_source
        if source is not None:
            # Controlled mode: the wire's nondeterminism is an explicit
            # choice among discrete lag steps instead of a jitter draw
            # (none is consumed).  Step 0 is the nominal latency
            # (baseline), step k adds ``lag_slack * k / (steps - 1)`` of
            # the latency on top — enough spread to reorder back-to-back
            # messages on a link.  Loopback models memory and never
            # reorders.  Every other lag is branchable: the latency
            # choice is made at send time, before any later message that
            # could overtake this one even exists, so "nothing else in
            # flight" proves nothing about commutativity.
            steps = source.lag_steps
            if src != dst and steps > 1:
                k = source.choose(ChoicePoint(
                    "lag", steps, key=f"{msg.kind}:{src}->{dst}"))
                if not 0 <= k < steps:
                    raise ValueError(
                        f"schedule source chose lag step {k} of {steps}")
                lat *= 1.0 + source.lag_slack * k / (steps - 1)
        elif p.jitter > 0.0:
            draws = self._jitter_draws
            if not draws:
                # A block of draws is, value for value, the stream that
                # many scalar ``uniform(-1, 1)`` calls would produce;
                # reversed, so taking them in order is ``pop()``.
                draws = self._jitter_draws = self._jitter_rng.uniform(
                    -1.0, 1.0, size=_JITTER_BLOCK).tolist()
                draws.reverse()
            lat *= 1.0 + p.jitter * draws.pop()

        extra = 0.0
        dropped = duplicated = False
        if f is not None and src != dst:
            extra = f.extra_latency(lat)
            dropped = scripted or f.roll_drop(src, dst)
            if not dropped and f.gray and f.link_down(src, dst, inject_end):
                # Partition / flap window: the wire itself is severed.
                # Pure in time — no rng draw, so scripting a partition
                # never shifts the drop/duplicate decision stream.
                stats.incr("net.link_down_drops")
                dropped = True
            if dropped:
                self._record_drop(msg, inject_end)
            else:
                duplicated = f.roll_duplicate()
        if not dropped:
            arrive = inject_end + lat + extra
            if self.tracer is not None:
                flow_args = {"bytes": msg.size}
                if pend is not None:
                    flow_args["attempt"] = pend.attempt
                self.tracer.flow(msg.kind, src, inject_end, dst, arrive,
                                 args=flow_args)
            # Scheduled as the plain function with the network as its
            # first argument: no bound method is built per copy in flight.
            arrival = Network._run_delivery_batch
            sim.schedule_at(arrive + p.o_recv, arrival, self, msg, pend, lat)
            if duplicated:
                # The reliable receiver suppresses the second copy;
                # without the protocol the handler really runs twice
                # (chaos mode).
                stats.incr("net.dups")
                arrive += f.duplicate_lag(lat)
                sim.schedule_at(arrive + p.o_recv, arrival, self, msg, pend,
                                lat)
        if pend is not None:
            rto = pend.rto0 * (_RTO_BACKOFF ** pend.attempt)
            pend.timer = sim.schedule_at(inject_end + rto,
                                         self._retransmit, pend)

    def _record_drop(self, msg: Message, t: float) -> None:
        self.stats.incr("net.drops")
        self.stats.incr(f"net.drops.{msg.kind}")
        if len(self.lost) < 64:
            self.lost.append(
                f"t={t:.6f}s {msg.kind} #{msg.seq} {msg.src}->{msg.dst}")
        if self.tracer is not None:
            self.tracer.instant(msg.src, f"drop {msg.kind}", t,
                                args={"dst": msg.dst, "seq": msg.seq})

    # The arrival event of one copy.  Nothing is batched (the name
    # predates the removal of delivery coalescing); it stays because
    # benchmarks/e2e/trace.py binds its span site by this name.
    def _run_delivery_batch(self, msg: Message, pend: Optional[_PendingSend],
                            lat: float) -> None:
        src = msg.src
        dst = msg.dst
        dead = self._dead
        if dead and (src in dead or dst in dead):
            # The link went down while this copy was in flight: a dead
            # source's packets are discarded, a dead destination
            # processes nothing.
            self.stats.incr("net.dead_link_discards")
            delivered = msg.delivered
            if (pend is None and src not in dead and delivered is not None
                    and not delivered.done):
                # A live sender's message must fail, not dangle: the
                # unreliable path has no retransmit timer that would
                # otherwise notice the downed link (a reliable send's
                # timer reaches the same verdict on its own).
                self.stats.incr("net.peer_failed")
                self._settle(msg, PeerFailedError(
                    f"delivery of {msg!r} discarded: image {dst} crashed "
                    "with the message in flight",
                    peer=dst, suspected=False))
            return
        if self.on_delivery is not None:
            self.on_delivery(src, dst)
        sim = self.sim
        if pend is None:
            if msg.on_deliver is not None:
                msg.on_deliver(msg)
            delivered = msg.delivered
            if (delivered is None or delivered.__class__ is ClockPoint
                    or delivered._done):
                # No ack asked for, or this is a duplicate copy: the
                # first copy's ack is due no later than this one's.
                return
            if not delivered._callbacks and msg.counted is None:
                # Nobody listens yet and no finish counts it: the ack is
                # a clock point.
                ack_at = sim.now + self.params.ack_latency_factor * lat
                seq = sim.reserve(ack_at)
                if seq:
                    delivered._clock = (sim, ack_at, seq)
                    delivered.__class__ = ClockPoint
                    return
            sim.schedule(self.params.ack_latency_factor * lat,
                         Network._resolve_delivered, self, msg)
            return
        rx = self._rx_states.get(pend.link)
        if rx is None:
            rx = self._rx_states[pend.link] = _RxState()
        if rx.record(pend.lseq):
            # Duplicate copy (injected dup or retransmission
            # overlap): suppress the handler but re-ack, healing a
            # lost ack.
            self.stats.incr("net.dups_suppressed")
        elif msg.on_deliver is not None:
            msg.on_deliver(msg)
        f = self.faults
        if f is not None and src != dst:
            if f.roll_ack_drop(dst, src):
                self.stats.incr("net.ack_drops")
                return
            if f.gray and f.link_down(dst, src, sim.now):
                # The reverse link is severed: the ack is lost on
                # the wire.
                self.stats.incr("net.link_down_drops")
                self.stats.incr("net.ack_drops")
                return
        sim.schedule(self.params.ack_latency_factor * lat, self._on_ack, pend)

    def _resolve_delivered(self, msg: Message) -> None:
        """The ack event of an unreliable send (:meth:`_settle`, inline:
        every counted spawn and put ends here)."""
        delivered = msg.delivered
        if not delivered._done:
            counted = msg.counted
            if counted is not None:
                self.count_outcome(counted[0], counted[1], None)
            delivered.set_result(None)

    # ------------------------------------------------------------------ #
    # Reliable protocol: timers, acks, abandonment
    # ------------------------------------------------------------------ #

    def _nominal_rto(self, cost: float, lat: float) -> float:
        """First retransmission timeout: ``_RTO_SAFETY`` × the message's
        nominal round trip, from its injection cost and wire latency
        before stragglers and jitter stretch them."""
        p = self.params
        return _RTO_SAFETY * (cost + lat + p.o_recv
                              + p.ack_latency_factor * lat)

    def _retransmit(self, pend: _PendingSend) -> None:
        if pend.acked:
            return
        msg = pend.msg
        if msg.src in self._dead:
            # The sender crashed between timer arm and fire: its pending
            # protocol state dies with it.
            self._tx_pending.pop((pend.link, pend.lseq), None)
            return
        if msg.dst in self._dead or msg.dst in self.confirmed:
            # Stop retrying into a downed link and surface a typed
            # failure instead of spinning to the cap.
            self._fail_pending(pend, PeerFailedError(
                f"retransmission of {msg!r} abandoned after "
                f"{pend.attempt} attempts: image {msg.dst} is "
                + ("confirmed dead" if msg.dst not in self._dead
                   else "crashed"),
                peer=msg.dst, suspected=msg.dst not in self._dead))
            return
        if msg.dst in self.suspects:
            # Merely suspected: park the pending message instead of
            # burning retries into a possibly-slow peer.  The timer is
            # not re-armed; unsuspecting re-injects, confirmation fails.
            self.stats.incr("net.quarantined")
            pend.timer = None
            self._quarantine.setdefault(msg.dst, []).append((msg, pend))
            return
        pend.attempt += 1
        p = self.params
        if pend.attempt > p.retry_cap:
            self._tx_pending.pop((pend.link, pend.lseq), None)
            raise RetryExhaustedError(
                f"reliable transport gave up on {msg!r} after "
                f"{p.retry_cap} retransmissions (link {pend.link}, link "
                f"seq {pend.lseq}, t={self.sim.now:.6f}s): every copy "
                "was lost — raise MachineParams.retry_cap or lower the "
                "FaultPlan drop rate",
                link=pend.link, lseq=pend.lseq, attempts=p.retry_cap,
                link_stats=self.link_retransmits,
            )
        self.stats.incr("net.retransmits")
        self.stats.incr(f"net.retransmits.{msg.kind}")
        self.link_retransmits[pend.link] = (
            self.link_retransmits.get(pend.link, 0) + 1)
        if self.tracer is not None:
            self.tracer.instant(msg.src, f"rexmit {msg.kind}", self.sim.now,
                                args={"dst": msg.dst,
                                      "attempt": pend.attempt})
        self._transmit(msg, pend=pend)

    def _fail_pending(self, pend: _PendingSend, exc: BaseException) -> None:
        """Abandon a reliably-sent message: pop protocol state, stop the
        timer, and surface ``exc`` through the message's ``delivered``
        (if anyone is watching)."""
        self._tx_pending.pop((pend.link, pend.lseq), None)
        if pend.timer is not None:
            self.sim.cancel(pend.timer)
            pend.timer = None
        self.stats.incr("net.peer_failed")
        delivered = pend.msg.delivered
        if delivered is not None and not delivered.done:
            self._settle(pend.msg, exc)

    def _peer_down(self, image: int, suspected: bool) -> None:
        if suspected:
            # A verdict takes no link down: the peer may be alive, so its
            # own sends proceed, and sends toward it fail at their next
            # retransmission timer.
            return
        # The dead image's own unacked sends die with it (cancel the
        # timers now; copies already in flight are discarded by
        # _run_delivery_batch).  Sends *to* it are left to fail at their
        # next retransmission timer — the moment the transport would
        # have touched the downed link.
        for key, pend in list(self._tx_pending.items()):
            if pend.msg.src == image:
                if pend.timer is not None:
                    self.sim.cancel(pend.timer)
                    pend.timer = None
                del self._tx_pending[key]

    def _on_ack(self, pend: _PendingSend) -> None:
        if pend.acked:
            return  # a re-ack of a suppressed duplicate
        if pend.msg.dst in self._dead:
            return  # the acking image crashed while the ack was in flight
        pend.acked = True
        self._tx_pending.pop((pend.link, pend.lseq), None)
        if pend.timer is not None:
            self.sim.cancel(pend.timer)
            pend.timer = None
        self.stats.incr("net.acks")
        if pend.msg.delivered is not None:
            self._settle(pend.msg)

    # ------------------------------------------------------------------ #

    def nic_busy_until(self, image: int) -> float:
        """When the image's NIC injection port next frees (diagnostic)."""
        return self._nic_free_at[image]

    def _in_flight(self) -> tuple[list, list]:
        return self.lost, [(p.msg, f"attempt {p.attempt}")
                           for p in self._tx_pending.values()]
