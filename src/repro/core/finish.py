"""The ``finish`` construct (paper §III-A).

``finish`` is a block-structured, *collective* construct over a team:
every member enters a matching block, and ``end finish`` blocks until all
implicitly-synchronized asynchronous operations initiated inside the
block — by any member, including transitively spawned functions — are
globally complete.

Matching
--------
Finish blocks match across images by ``(team id, per-team finish sequence
number)``; because CAF 2.0 is SPMD, each image's N-th finish block on a
team pairs with its teammates' N-th.  A :class:`FinishFrame` holds one
image's counters for one block; frames are created lazily, because a
shipped function can land on an image *before* that image has entered its
own copy of the block.

Counting (Fig. 7)
-----------------
Each frame keeps two epochs (even/odd), each with four counters:

- ``sent``       — counted messages this image initiated;
- ``delivered``  — of those, how many have been acknowledged delivered;
- ``received``   — counted messages that landed on this image;
- ``completed``  — of those, how many have finished their local work.

A message is tagged with whether it was sent "inside" the current wave's
consistent cut; all four counter updates for that message go to the epoch
named by the tag.  Receiving an odd-tagged message hoists the receiver
into the odd epoch (Fig. 7, line 32) — that is what makes the allreduce
cut consistent without FIFO channels or global clocks.

The tag is *causal*, not phase-based.  Classifying a send purely by the
sender image's current phase is unsound: an image hoisted into the odd
epoch may still be running (a) its main program, whose sends precede its
allreduce join and are forced delivered by the line-4 wait, and (b) a
shipped-function handler whose receive was folded into the even epoch by
a wave exit while its body was still running.  In both cases the work is
accounted *inside* the cut (line 4 waits on ``even``), so hiding its
sends in ``odd`` lets an allreduce read zero with counted messages
outstanding — finish returns while shipped functions still run.
:meth:`FinishFrame.on_send` therefore classifies each send by the
*cause* of the sending activation: main-program sends count even (they
happen before this image contributes to the wave); handler sends follow
their receive — odd while the receive is still hidden in the odd epoch,
even once it has been folded into the visible cut (provided this image
has not yet contributed its even counters to the in-flight wave), and
odd again after the contribution, so late sends cannot pair with an
already-read completion on the remote side.

One bookkeeping detail the pseudo-code leaves implicit: when the odd
epoch is *folded* into the even one (allreduce exit), counts for odd-
tagged messages still in flight must follow their ``sent``/``received``
counterparts into the even epoch.  We track a per-frame fold generation;
a delivery ack (or completion) whose message was stamped in an earlier
generation lands in the even epoch, where its matching count now lives.
Without this, a late ack strands ``even.sent > even.delivered`` forever
and the line-4 wait deadlocks.

What counts
-----------
Spawns, asynchronous copies, and asynchronous collectives initiated with
*implicit* completion (no event arguments) while a frame is current.
Operations carrying explicit events manage their own completion and are
not tracked (§III: finish guarantees are for implicitly-synchronized
operations).  The detector's own allreduce traffic is never counted.

One send path, one arrival path
-------------------------------
Every message of those operations, the initiator's and those their
handlers send on, leaves through :func:`count_send` and lands through
:func:`arrival` (a task handler, ``spawn.exec``, calls
:func:`count_received` and :func:`count_completed` itself).  The send
path counts the send, appends the frame key and epoch tag to the
handler's arguments, asks for the delivery ack and registers
:func:`count_delivery_outcome` on it; a send the AM layer refuses
before it leaves is uncounted at once.  The arrival path counts the
message received and hands the handler its frame and receive stamp,
which are the cause of any send the handler makes; it counts the
message completed when the handler returns.  An uncounted message
(outside a finish, or with explicit completion) travels the same paths
with ``(None, None)`` for key and tag.

Failure reconciliation (DESIGN §11)
-----------------------------------
Under the fail-stop model a crashed image takes its counters with it, so
the surviving members' sums can never balance unless every count that
*paired* with the dead image is removed.  :meth:`FinishFrame.
reconcile_failure` does that subtraction when the failure detector
publishes a suspect: fully-delivered sends to the dead peer
(``delivered_to``) leave ``sent``/``delivered`` together, and receipts
from it (``received_from``/``completed_from``) leave
``received``/``completed``.  Sends still in flight are uncounted one at
a time by :meth:`on_send_failed` when the transport surfaces
``PeerFailedError`` — never at reconcile time, so nothing is subtracted
twice.  After reconciliation the peer lands in ``reconciled`` and later
counter events that name it are ignored.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from repro.sim.tasks import Condition
from repro.runtime.team import Team
from repro.net.active_messages import AMCategory


class FinishUsageError(RuntimeError):
    """Structural misuse of finish (mismatched end, bad team nesting...)."""


class Epoch:
    """Four counters of Fig. 7's ``epoch`` structure."""

    __slots__ = ("sent", "delivered", "received", "completed")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.received = 0
        self.completed = 0

    def fold_from(self, other: "Epoch") -> None:
        """Accumulate ``other`` into self and zero it (Fig. 7 lines 16-25)."""
        self.sent += other.sent
        self.delivered += other.delivered
        self.received += other.received
        self.completed += other.completed
        other.sent = other.delivered = other.received = other.completed = 0

    def locally_quiet(self) -> bool:
        """Fig. 7 line 4: all my sends landed, all my receipts completed."""
        return (self.sent == self.delivered
                and self.completed == self.received)

    def __repr__(self) -> str:
        return (f"Epoch(sent={self.sent}, delivered={self.delivered}, "
                f"received={self.received}, completed={self.completed})")


class FinishFrame:
    """One image's state for one finish block.

    Slotted and peer-sparse: every per-peer map holds entries only for
    peers this image actually exchanged counted messages with, so a
    frame's footprint follows the communication degree, not the image
    count (DESIGN.md §13).

    Counter events call ``cond.wake()`` only while a task waits on the
    condition: nearly every event happens with nobody waiting."""

    __slots__ = ("machine", "world_rank", "team", "seq", "key", "even",
                 "odd", "present", "gen", "contributed", "cond", "rounds",
                 "sent_to", "delivered_to", "received_from",
                 "completed_from", "reconciled", "_reconcile_stamps",
                 "ledger")

    def __init__(self, machine, world_rank: int, team: Team, seq: int):
        self.machine = machine
        self.world_rank = world_rank
        self.team = team
        self.seq = seq
        self.key = (team.id, seq)
        self.even = Epoch()
        self.odd = Epoch()
        self.present = self.even
        #: fold generation (bumped by fold_to_even; see module docstring)
        self.gen = 0
        #: True between this image contributing its even counters to an
        #: allreduce wave and the fold on that wave's exit; handler sends
        #: in that window are post-cut and must hide in odd (see
        #: module docstring, "causal" tagging)
        self.contributed = False
        self.cond = Condition(machine.sim, f"finish{self.key}@{world_rank}")
        #: diagnostic: allreduce waves this image participated in
        self.rounds = 0
        #: per-destination send counts (X10-style vector detector)
        self.sent_to: dict[int, int] = {}
        # Per-peer pairing counters, consumed by reconcile_failure.
        self.delivered_to: dict[int, int] = {}
        self.received_from: dict[int, int] = {}
        self.completed_from: dict[int, int] = {}
        #: peers whose counts were reconciled out of this frame; seeded
        #: from the failure service's *confirmed* set so frames created
        #: lazily after a confirmation never count traffic paired with
        #: the dead image.  Mere suspicion does not reconcile (DESIGN
        #: §12): the suspect's traffic is quarantined, not lost.
        self.reconciled: set[int] = set()
        failure = getattr(machine, "failure", None)
        if failure is not None:
            self.reconciled |= failure.confirmed
        #: exact-subtraction stamps per reconciled peer, kept so a false
        #: confirmation can be healed by replaying the algebra in
        #: reverse (:meth:`unreconcile`)
        self._reconcile_stamps: dict[int, tuple] = {}
        #: outbound spawn ledger {spawn_id: (dst, fn, args, name)} in
        #: send order, kept only while a failure service with recovery is
        #: attached; an entry leaves when its send fails (re-executed at
        #: once) or, per destination, in reconcile_failure.
        self.ledger: dict[int, tuple] = {}

    # -- epoch machinery ------------------------------------------------- #

    @property
    def in_odd(self) -> bool:
        return self.present is self.odd

    # Cumulative (epoch-independent) counts, read by the baseline
    # detectors and for diagnostics: every counter event moves exactly
    # one epoch, so the two epochs' sum is the count.

    @property
    def c_sent(self) -> int:
        return self.even.sent + self.odd.sent

    @property
    def c_delivered(self) -> int:
        return self.even.delivered + self.odd.delivered

    @property
    def c_received(self) -> int:
        return self.even.received + self.odd.received

    @property
    def c_completed(self) -> int:
        return self.even.completed + self.odd.completed

    def _epoch_for(self, tag_odd: bool, gen: int) -> Epoch:
        """The epoch a follow-up count (delivered/completed) belongs to:
        odd only while the fold generation its message was stamped in is
        still current; after a fold, the matching counts live in even."""
        if tag_odd and gen == self.gen:
            return self.odd
        return self.even

    def advance_to_odd(self) -> None:
        """Even → odd transition (entering an allreduce, Fig. 7 line 7,
        or receiving an odd-tagged message, line 32)."""
        self.present = self.odd

    def fold_to_even(self) -> None:
        """Odd → even transition on allreduce exit (Fig. 7 line 10 via
        next_epoch): fold the odd epoch into the even one."""
        self.even.fold_from(self.odd)
        self.present = self.even
        self.gen += 1
        self.contributed = False
        if self.cond._waiters:
            self.cond.wake()

    # -- counter events ---------------------------------------------------- #

    def on_send(self, dst: Optional[int] = None,
                cause: Optional[tuple] = None) -> tuple[bool, int, Optional[int]]:
        """Count an outgoing message; returns the (tag, generation, dst)
        stamp.  The tag travels on the wire; the stamp stays with the
        sender's ack callback.  Always counts, even toward a suspected
        peer: the transport guarantees such a send later resolves as
        failed, and :meth:`on_send_failed` removes exactly this count.

        ``cause`` is the receive stamp of the shipped-function activation
        issuing the send (None for main-program sends).  It determines
        the epoch tag causally — see the module docstring: a send is
        hidden in odd exactly when its cause is hidden, or when this
        image has already contributed its even counters to the wave in
        flight."""
        if cause is None:
            # Main-program send: always precedes this image's allreduce
            # contribution (the main blocks inside the detector once it
            # joins), and the line-4 wait forces its delivery before the
            # contribution is read — so it is inside the cut even when
            # an odd-tagged arrival has hoisted the image's phase.
            tag_odd = False
        elif cause[0] and cause[1] == self.gen:
            # Caused by a receive still hidden in the odd epoch: hide the
            # send with it; both fold into the visible cut together.
            tag_odd = True
        else:
            # The causing receive is visible in even.  Pre-contribution
            # the send joins it inside the cut (line 4 then holds this
            # image's read until the handler completes, so the count is
            # included); post-contribution it must hide until the fold.
            tag_odd = self.contributed
        epoch = self.odd if tag_odd else self.even
        epoch.sent += 1
        if dst is not None:
            self.sent_to[dst] = self.sent_to.get(dst, 0) + 1
        if self.cond._waiters:
            self.cond.wake()
        return (tag_odd, self.gen, dst)

    def on_delivered(self, stamp: tuple) -> None:
        tag_odd, gen, dst = stamp
        if dst is not None and dst in self.reconciled:
            return  # the pair was already subtracted wholesale
        self._epoch_for(tag_odd, gen).delivered += 1
        if dst is not None:
            self.delivered_to[dst] = self.delivered_to.get(dst, 0) + 1
        if self.cond._waiters:
            self.cond.wake()

    def on_send_failed(self, stamp: tuple) -> None:
        """A counted send was reported undeliverable (peer failed):
        remove its ``sent`` count so the frame can balance without the
        dead receiver's counters."""
        tag_odd, gen, dst = stamp
        self._epoch_for(tag_odd, gen).sent -= 1
        if dst is not None and dst in self.sent_to:
            self.sent_to[dst] -= 1
        self.machine.stats.incr("finish.sends_failed")
        if self.cond._waiters:
            self.cond.wake()

    def on_received(self, tag_odd: bool, src: Optional[int] = None
                    ) -> tuple[bool, int, Optional[int]]:
        """Count an incoming message; returns the receiver-side stamp to
        hand back to :meth:`on_completed` when its local work is done."""
        if src is not None and src in self.reconciled:
            return (tag_odd, self.gen, src)  # uncounted; completion skips too
        if tag_odd:
            self.advance_to_odd()
            self.odd.received += 1
        else:
            self.even.received += 1
        if src is not None:
            self.received_from[src] = self.received_from.get(src, 0) + 1
        if self.cond._waiters:
            self.cond.wake()
        return (tag_odd, self.gen, src)

    def on_completed(self, stamp: tuple) -> None:
        tag_odd, gen, src = stamp
        if src is not None and src in self.reconciled:
            return
        self._epoch_for(tag_odd, gen).completed += 1
        if src is not None:
            self.completed_from[src] = self.completed_from.get(src, 0) + 1
        if self.cond._waiters:
            self.cond.wake()

    # -- failure reconciliation ----------------------------------------- #

    def reconcile_failure(self, dead: int) -> dict[int, tuple]:
        """Remove every count paired with ``dead`` (see module docstring)
        and return the popped ledger entries destined to it (in send
        order), so the caller can re-execute the lost shipped functions.
        Idempotent."""
        if dead in self.reconciled:
            return {}
        self.reconciled.add(dead)
        # Collapse both epochs first so the subtraction has one target
        # and any in-progress detector wave restarts on the gen bump.
        self.fold_to_even()
        d = self.delivered_to.pop(dead, 0)
        r = self.received_from.pop(dead, 0)
        c = self.completed_from.pop(dead, 0)
        self.even.sent -= d
        self.even.delivered -= d
        self.even.received -= r
        self.even.completed -= c
        lost = {spawn_id: entry for spawn_id, entry in self.ledger.items()
                if entry[0] == dead}
        for spawn_id in lost:
            del self.ledger[spawn_id]
        self._reconcile_stamps[dead] = (d, r, c, lost)
        self.machine.stats.incr("finish.reconciled")
        if self.cond._waiters:
            self.cond.wake()
        return lost

    def unreconcile(self, peer: int) -> None:
        """Heal a false confirmation: replay :meth:`reconcile_failure`'s
        exact subtraction in reverse, so ``peer``'s counter pairs count
        again and its future stamps are no longer ignored.  No count is
        added twice (the stamps record exactly what was subtracted, and
        while reconciled no new pair with ``peer`` could accumulate) and
        none is lost (the transport heals *before* delivering the
        message that proved the peer alive).  Idempotent."""
        if peer not in self.reconciled:
            return
        self.reconciled.discard(peer)
        d, r, c, lost = self._reconcile_stamps.pop(peer, (0, 0, 0, {}))
        # Collapse to even first: the subtraction targeted the even
        # epoch, and the gen bump restarts any in-progress detector
        # wave — the membership it snapshotted just changed.
        self.fold_to_even()
        if d:
            self.delivered_to[peer] = self.delivered_to.get(peer, 0) + d
        if r:
            self.received_from[peer] = self.received_from.get(peer, 0) + r
        if c:
            self.completed_from[peer] = self.completed_from.get(peer, 0) + c
        self.even.sent += d
        self.even.delivered += d
        self.even.received += r
        self.even.completed += c
        # The popped spawn-ledger entries go back on the books: the
        # peer is alive, so they were delivered (or quarantined and
        # flushed), not lost.
        self.ledger.update(lost)
        self.machine.stats.incr("finish.unreconciled")
        if self.cond._waiters:
            self.cond.wake()

    def snapshot(self) -> dict:
        """Counter snapshot for liveness diagnostics (see
        :func:`stall_report`)."""
        return {
            "image": self.world_rank,
            "key": self.key,
            "phase": "odd" if self.in_odd else "even",
            "even": {"sent": self.even.sent,
                     "delivered": self.even.delivered,
                     "received": self.even.received,
                     "completed": self.even.completed},
            "odd": {"sent": self.odd.sent,
                    "delivered": self.odd.delivered,
                    "received": self.odd.received,
                    "completed": self.odd.completed},
            "cumulative": {"sent": self.c_sent,
                           "delivered": self.c_delivered,
                           "received": self.c_received,
                           "completed": self.c_completed},
            "rounds": self.rounds,
            "waiters": self.cond.waiting,
            "reconciled": sorted(self.reconciled),
            "ledger": len(self.ledger),
        }

    def __repr__(self) -> str:
        return (f"<FinishFrame {self.key}@{self.world_rank} "
                f"{'odd' if self.in_odd else 'even'} even={self.even} "
                f"odd={self.odd}>")


# --------------------------------------------------------------------- #
# Liveness diagnostics
# --------------------------------------------------------------------- #

def _fmt_epoch(name: str, e: Epoch) -> str:
    return (f"{name}(sent={e.sent}, delivered={e.delivered}, "
            f"received={e.received}, completed={e.completed})")


def stall_report(machine, blocked: list) -> str:
    """The liveness watchdog's diagnostic: which images stalled, and the
    finish-counter evidence of *why* (typically ``sent > delivered`` on
    a frame whose counted message was lost by an unreliable network).

    Called by :meth:`Machine._liveness_check` when the event queue
    drains with main programs still blocked and the network has dropped
    traffic."""
    net = machine.network
    diag = net.diagnostics()
    stats = machine.stats
    lines = [
        f"quiescence without completion at t={machine.sim.now:.6f}s: "
        f"blocked main programs {blocked}",
        f"  network: reliable={'on' if machine.params.reliable else 'OFF'} "
        f"drops={stats['net.drops']} ack_drops={stats['net.ack_drops']} "
        f"dups={stats['net.dups']} retransmits={stats['net.retransmits']}",
    ]
    lost = diag["lost"]
    for rec in lost[:8]:
        lines.append(f"  lost: {rec}")
    if len(lost) > 8:
        lines.append(f"  ... and {len(lost) - 8} more lost messages")
    for rec in diag["unacked"][:8]:
        lines.append(f"  unacked: {rec}")
    dead = sorted(machine.dead_images)
    if dead:
        lines.append(f"  dead images: {dead}")
    suspects = sorted(net.suspects - net.confirmed)
    if suspects:
        lines.append(f"  suspected images: {suspects}")
    if net.confirmed:
        lines.append(f"  confirmed dead images: {sorted(net.confirmed)}")
    service = machine.failure
    if service is not None and service.recovered:
        lines.append(
            "  recovered images: "
            + ", ".join(f"{r} (incarnation {service.incarnations[r]})"
                        for r in sorted(service.recovered)))
    if diag["parked"]:
        lines.append(f"  quarantined sends per suspect: {diag['parked']}")
    # Per-image pending handles: spawn replies still awaiting delivery
    # acks, and blocked event_wait calls.
    pending_spawns = {src: n for (src, kind), n in diag["pending"].items()
                      if kind == "spawn"}
    event_waits: dict[int, int] = {}
    for ev in machine._events.values():
        for rank, cond in ev._conds.items():
            if cond.waiting:
                event_waits[rank] = event_waits.get(rank, 0) + cond.waiting
    for rank in sorted(set(pending_spawns) | set(event_waits)):
        lines.append(
            f"  image {rank} pending handles: "
            f"spawn_replies={pending_spawns.get(rank, 0)} "
            f"event_waits={event_waits.get(rank, 0)}"
        )
    for (rank, key), frame in sorted(machine._frames.items()):
        interesting = (frame.cond.waiting > 0
                       or not frame.even.locally_quiet()
                       or not frame.odd.locally_quiet()
                       or frame.in_odd)
        if not interesting:
            continue
        lines.append(
            f"  image {rank} finish{key}: phase={'odd' if frame.in_odd else 'even'} "
            f"{_fmt_epoch('even', frame.even)} {_fmt_epoch('odd', frame.odd)} "
            f"rounds={frame.rounds} waiters={frame.cond.waiting}"
        )
    # A tree collective's record leaves the table when it completes, so
    # one whose local call happened is stuck behind a lost tree message.
    stalled_colls = [
        key for key, state in sorted(machine._coll_states.items())
        if getattr(state, "called", False)
    ]
    if stalled_colls:
        lines.append(
            "  stalled collectives (rank, team, seq): "
            + ", ".join(map(str, stalled_colls[:8]))
            + (" ..." if len(stalled_colls) > 8 else "")
        )
    lines.append(
        "  hint: enable MachineParams.reliable to retransmit lost "
        "messages, or remove the FaultPlan"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Counted messages (module docstring, "One send path, one arrival
# path"): spawn, copy_async and the asynchronous collectives send through
# count_send and receive through arrival, or count_received and
# count_completed in a task handler.  Outside this module only spawn's
# loopback re-execution touches a frame's counters.
# --------------------------------------------------------------------- #

#: key and tag of a message no finish counts
_UNCOUNTED = (None, None)


def frame_at(machine, world_rank: int, key: tuple) -> FinishFrame:
    """Get-or-create the frame for ``key`` on ``world_rank`` (frames are
    created lazily on message arrival, see module docstring)."""
    return machine.get_or_create_frame(world_rank, key)


def count_send(machine, frame: Optional[FinishFrame], cause: Optional[tuple],
               src: int, dst: int, handler: str, args: tuple,
               payload: Any = None, payload_size: int = 0,
               category: AMCategory = AMCategory.MEDIUM,
               want_ack: bool = False, kind: Optional[str] = None):
    """The one send path: the active message ``handler(*args)`` from
    ``src`` to ``dst`` (the rest as :meth:`AMLayer.request_nb`), counted
    on ``frame`` unless it is None, with the frame key and epoch tag
    appended to ``args``.  A counted send asks for the delivery ack and
    registers :func:`count_delivery_outcome` on it; one the AM layer
    refuses before it leaves (an over-size payload, an argument the
    process wire cannot carry) is uncounted and the error re-raised.
    ``cause`` is the sending activation's receive stamp (see
    :meth:`FinishFrame.on_send`).  Returns the sent message."""
    request_nb = machine.am.request_nb
    if frame is None:
        return request_nb(src, dst, handler, args=args + _UNCOUNTED,
                          payload=payload, payload_size=payload_size,
                          category=category, want_ack=want_ack, kind=kind)
    stamp = frame.on_send(dst, cause)
    try:
        msg = request_nb(src, dst, handler,
                         args=args + (frame.key, stamp[0]), payload=payload,
                         payload_size=payload_size, category=category,
                         want_ack=True, kind=kind)
    except Exception:
        count_send_failed(frame, stamp)
        raise
    msg.delivered.add_done_callback(
        partial(count_delivery_outcome, frame, stamp))
    return msg


def count_delivered(frame: FinishFrame, stamp: tuple) -> None:
    frame.on_delivered(stamp)


def count_send_failed(frame: FinishFrame, stamp: tuple) -> None:
    """Uncount a send that never reached its peer."""
    frame.on_send_failed(stamp)


def count_delivery_outcome(frame: FinishFrame, stamp: tuple, fut) -> None:
    """Done-callback of a counted send's ``delivered`` future: count it
    delivered on success, uncount the send if the transport reported the
    peer failed."""
    if fut.exception() is None:
        count_delivered(frame, stamp)
    else:
        count_send_failed(frame, stamp)


def count_received(machine, ctx, key: Optional[tuple], tag: Optional[bool]
                   ) -> tuple[Optional[FinishFrame], Optional[tuple]]:
    """Count a message landing on ``ctx.dst``: the receiver's frame for
    ``key`` and the receive stamp to hand :func:`count_completed` when
    its local work is done, or ``(None, None)`` for an uncounted
    message."""
    if key is None:
        return _UNCOUNTED
    frame = machine.get_or_create_frame(ctx.dst, key)
    return frame, frame.on_received(bool(tag), ctx.src)


def count_completed(frame: Optional[FinishFrame],
                    stamp: Optional[tuple]) -> None:
    if frame is not None:
        frame.on_completed(stamp)


def arrival(machine, handler: Callable, ctx, *wire: Any) -> None:
    """The one arrival path, the AM handler of an inline counted family
    (register ``partial(arrival, machine, handler)``): runs
    ``handler(ctx, frame, stamp, *args)`` for a message sent by
    :func:`count_send`, counted received before and completed after."""
    key = wire[-2]
    if key is None:
        handler(ctx, None, None, *wire[:-2])
        return
    frame, stamp = count_received(machine, ctx, key, wire[-1])
    handler(ctx, frame, stamp, *wire[:-2])
    count_completed(frame, stamp)


# --------------------------------------------------------------------- #
# The block construct
# --------------------------------------------------------------------- #

def finish_begin(ctx, team: Optional[Team] = None
                 ) -> Generator[Any, Any, FinishFrame]:
    """Enter a finish block on ``team`` (default: the world team).

    Purely local: the collective synchronization happens at
    :func:`finish_end`.  Returns the frame (useful for diagnostics).
    """
    team = team if team is not None else ctx.team_world
    if ctx.rank not in team:
        raise FinishUsageError(
            f"image {ctx.rank} entered a finish on team {team.id} it does "
            "not belong to"
        )
    if ctx.in_shipped_function:
        raise FinishUsageError(
            "finish blocks are collective and cannot be opened inside a "
            "shipped function (spawn from within an image-level finish "
            "instead)"
        )
    state = ctx.image_state
    parent = state.finish_stack[-1] if state.finish_stack else None
    if parent is not None and not team.is_subset_of(parent.team):
        raise FinishUsageError(
            f"nested finish team {team.id} is not a subset of the "
            f"enclosing finish team {parent.team.id}"
        )
    seq = state.next_finish_seq(team.id)
    frame = frame_at(ctx.machine, ctx.rank, (team.id, seq))
    state.finish_stack.append(frame)
    ctx.machine.stats.incr("finish.blocks")
    return frame
    yield  # pragma: no cover - makes this a generator for API uniformity


def finish_end(ctx, detector: str = "epoch") -> Generator[Any, Any, int]:
    """Leave the current finish block: run global termination detection
    and block until it succeeds.  Returns the number of allreduce waves
    used (the Fig. 18 metric).

    ``detector`` selects the algorithm: ``"epoch"`` (the paper's,
    default; ``"ft_epoch"`` when a failure service is attached, which
    can also be named directly), the Fig. 18 baselines
    ``"wave_drain"`` (half the line-4 wait) and ``"wave_unbounded"``
    (none), ``"four_counter"`` (Mattern/AM++), ``"vector_count"``
    (X10-style), or ``"barrier"`` (the *incorrect* naive scheme of
    Fig. 5, kept for demonstration).
    """
    from repro.core import termination

    state = ctx.image_state
    if not state.finish_stack:
        raise FinishUsageError(f"image {ctx.rank}: end finish without finish")
    frame = state.finish_stack[-1]
    if ctx.machine.racecheck is not None:
        ctx.machine.racecheck.finish_enter(ctx, frame.key)
    algorithm = termination.get_detector(detector)
    rounds = yield from algorithm(ctx, frame)
    state.finish_stack.pop()
    # Everything this activation initiated in the block is now globally
    # complete: the handles it registered have nothing left to order.
    ctx.prune()
    if ctx.machine.racecheck is not None:
        ctx.machine.racecheck.finish_exit(ctx, frame.key)
    ctx.machine.stats.incr("finish.completed")
    ctx.machine.stats.incr("finish.rounds_total", rounds)
    return rounds
