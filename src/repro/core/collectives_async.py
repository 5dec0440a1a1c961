"""Asynchronous team collectives (paper §II-C.3).

The paper's vision covers alltoall, barrier, broadcast, gather, reduce,
scatter, scan and sort, each overlappable with computation and carrying
optional event parameters::

    team_broadcast_async(A, root, myteam, srcE, localE)

``src_event`` signals *local data completion* (on the root: the source
buffer may be overwritten; on a participant: the data has arrived and may
be read).  ``local_event`` signals *local operation completion* (all
pairwise communication involving this image is done).  Fig. 4 spells the
matrix out; tests assert it.

Implementation notes
--------------------
``broadcast_async``, ``reduce_async``, ``allreduce_async`` and
``barrier_async`` run fully staged tree state machines with per-stage
completion.  The remaining collectives (gather/scatter/allgather/
alltoall/scan/sort) are *composite*: an internal task runs the
synchronous tree algorithm and the handle's ``local_data``/``local_op``
collapse to its completion — conservative but sound (documented
substitution; the paper's evaluation only exercises broadcast-style
completion splitting).

When called with no events a collective uses implicit completion: it
registers with the activation for ``cofence`` and its tree messages are
counted against the enclosing ``finish`` (the team of the collective must
be the finish team or a subset, §III-A.1 — enforced here).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

import numpy as np

from repro.sim.tasks import Future, all_of
from repro.runtime.sizeof import sizeof
from repro.runtime.team import Team
from repro.net.active_messages import AMCategory
from repro.core.completion import RESOLVED, AsyncOp, chain
from repro.core import collectives as sync
from repro.core import finish as fin

_BCAST = "acoll.bcast"
_REDUCE_UP = "acoll.reduce_up"
_SUBTREE_DONE = "acoll.subtree_done"


class CollectiveUsageError(RuntimeError):
    """Misuse of an asynchronous collective (team/finish mismatch...)."""


class _AState:
    """Per-image state of one asynchronous collective instance."""

    def __init__(self) -> None:
        self.op: Optional[AsyncOp] = None
        self.buf: Optional[np.ndarray] = None
        self.arrived_payload: Any = None
        self.arrived = False
        self.have_own = False
        self.value: Any = None
        self.reduce_op = None
        self.child_values: list[Any] = []
        self.sent_up = False
        self.forwarded_down = False
        self.subtree_done_count = 0
        self.my_work_done = False
        self.key = None
        self.src_event = None
        self.local_event = None
        self.down_payload: Any = None
        #: injection futures of my tree sends, straight off their receipts
        self.injected: list[Future] = []
        #: my tree sends not yet acknowledged
        self.unacked = 0
        self.phase2 = False  # allreduce: broadcast phase underway


def _check_finish_team(ctx, team: Team, implicit: bool) -> Optional[tuple]:
    """Validate the §III-A.1 containment rule; returns the frame key."""
    if not implicit:
        return None
    frame = ctx.activation.current_frame()
    if frame is None:
        return None
    if not team.is_subset_of(frame.team):
        raise CollectiveUsageError(
            f"async collective team {team.id} is not a subset of the "
            f"enclosing finish team {frame.team.id} (paper §III-A.1)"
        )
    return frame.key


def _ensure_handlers(machine) -> None:
    am = machine.am
    if am.is_registered(_BCAST):
        return
    am.register(_BCAST, _make_bcast_handler(machine))
    am.register(_REDUCE_UP, _make_reduce_up_handler(machine))
    am.register(_SUBTREE_DONE, _make_subtree_done_handler(machine))


# --------------------------------------------------------------------- #
# Broadcast
# --------------------------------------------------------------------- #

def broadcast_async(ctx, buf: np.ndarray, root: int = 0,
                    team: Optional[Team] = None,
                    src_event=None, local_event=None,
                    radix: int = 2) -> AsyncOp:
    """Asynchronously broadcast the root's ``buf`` contents into every
    member's ``buf``.  Returns immediately with the handle."""
    machine = ctx.machine
    _ensure_handlers(machine)
    team = team if team is not None else ctx.team_world
    implicit = src_event is None and local_event is None
    key = _check_finish_team(ctx, team, implicit)
    machine.stats.incr("acoll.broadcast")

    seq = machine.next_coll_seq(ctx.rank, team.id)
    state = machine.coll_state(ctx.rank, team.id, seq, _AState)
    op = AsyncOp("broadcast_async")
    state.op = op
    state.buf = buf
    state.key = key
    state.src_event = _resolve_event(ctx, src_event)
    state.local_event = _resolve_event(ctx, local_event)
    my_tr = team.rank_of(ctx.rank)

    if my_tr == root:
        data = np.copy(buf)
        state.down_payload = data
        _bcast_forward(machine, team, my_tr, seq, root, radix, state, data,
                       cause=ctx.activation.cause)
        # Root's local-data point: all injections to children done (the
        # source buffer has been fully read by the NIC).
        _resolve_local_data(machine, ctx.rank, state)
    else:
        state.have_own = True  # marks local participation
        if state.arrived:
            _bcast_apply(machine, team, my_tr, seq, root, radix, state,
                         cause=ctx.activation.cause)

    if implicit:
        reads = my_tr == root
        ctx.activation.register(op.make_pending(
            reads_local=reads, writes_local=not reads,
            released=op.local_op))
    return op


def _resolve_event(ctx, ev):
    from repro.runtime.event import EventRef, EventVar
    if ev is None:
        return None
    if isinstance(ev, EventRef):
        return ev
    if isinstance(ev, EventVar):
        return ev.ref_for(ctx.rank)
    raise TypeError(f"expected EventVar or EventRef, got {type(ev).__name__}")


def _resolve_local_data(machine, world_rank: int, state: _AState) -> None:
    done = (all_of(state.injected, "acoll.ld") if state.injected
            else RESOLVED)
    chain(done, state.op.local_data)
    if state.src_event is not None:
        done.add_done_callback(
            lambda _f: machine.post_event(state.src_event,
                                          from_rank=world_rank))
    _maybe_local_op(machine, world_rank, state)


def _maybe_local_op(machine, world_rank: int, state: _AState) -> None:
    """Local operation completion: my receive happened (if any) and all
    my sends are acknowledged."""
    if state.op is None or state.op.local_op.done:
        # The local call has not happened yet (data raced ahead of the
        # SPMD program) — the call itself will re-run this check.
        return
    if not state.my_work_done or state.unacked:
        return  # re-checked as each ack lands (_on_ack)
    state.op.local_op.set_result(None)
    if state.local_event is not None:
        machine.post_event(state.local_event, from_rank=world_rank)


def _tree_send(machine, src_w: int, dst: int, handler: str, team: Team,
               seq: int, root: int, radix: int, state: _AState,
               payload: Any, cause):
    """Send one counted, acknowledged tree message of this collective and
    return its receipt, whose futures are the pairwise completion the
    handle's ``local_data``/``local_op`` are composed from."""
    stamp = fin.count_send(machine, src_w, state.key, dst=dst, cause=cause)
    receipt = machine.am.request_nb(
        src_w, dst, handler,
        args=(team.id, seq, root, radix, state.key, fin.wire_tag(stamp)),
        payload=payload, payload_size=sizeof(payload),
        category=AMCategory.LONG, want_ack=True, kind=handler,
    )
    state.injected.append(receipt.injected)
    state.unacked += 1
    receipt.delivered.add_done_callback(
        partial(_on_ack, machine, src_w, state))
    if state.key is not None:
        receipt.delivered.add_done_callback(
            partial(fin.count_delivery_outcome, machine, src_w, state.key,
                    stamp))
    return receipt


def _on_ack(machine, world_rank: int, state: _AState, _fut) -> None:
    state.unacked -= 1
    _maybe_local_op(machine, world_rank, state)


def _bcast_forward(machine, team: Team, my_tr: int, seq: int, root: int,
                   radix: int, state: _AState, data: np.ndarray,
                   cause=None) -> None:
    src_w = team.world_rank(my_tr)
    for child_tr in team.tree_children(my_tr, root, radix):
        _tree_send(machine, src_w, team.world_rank(child_tr), _BCAST, team,
                   seq, root, radix, state, data, cause)
    state.my_work_done = True


def _make_bcast_handler(machine):
    def handle_bcast(ctx, team_id, seq, root, radix, key, tag):
        recv_stamp = fin.count_received(machine, ctx.image, key, tag,
                                        src=ctx.src)
        state = machine.coll_state(ctx.image, team_id, seq, _AState)
        state.arrived = True
        state.arrived_payload = ctx.payload
        team = machine.team_by_id(team_id)
        my_tr = team.rank_of(ctx.image)
        if state.have_own:
            _bcast_apply(machine, team, my_tr, seq, root, radix, state,
                         cause=recv_stamp)
        else:
            # Data arrived before the local call: forward immediately so
            # the tree keeps moving; apply to the buffer at the call.
            _bcast_forward_only(machine, team, my_tr, seq, root, radix,
                                state, cause=recv_stamp)
        fin.count_completed(machine, ctx.image, key, recv_stamp)
    return handle_bcast


def _bcast_forward_only(machine, team, my_tr, seq, root, radix,
                        state: _AState, cause=None) -> None:
    if state.forwarded_down:
        return
    state.forwarded_down = True
    _bcast_forward(machine, team, my_tr, seq, root, radix, state,
                   state.arrived_payload, cause=cause)


def _bcast_apply(machine, team, my_tr, seq, root, radix,
                 state: _AState, cause=None) -> None:
    _bcast_forward_only(machine, team, my_tr, seq, root, radix, state,
                        cause=cause)
    state.my_work_done = True
    w = team.world_rank(my_tr)
    if state.buf is not None and not state.op.local_data.done:
        state.buf[...] = state.arrived_payload
        state.op.local_data.set_result(None)
        if state.src_event is not None:
            machine.post_event(state.src_event, from_rank=w)
    _maybe_local_op(machine, w, state)


def _make_reduce_up_handler(machine):
    def handle_reduce_up(ctx, team_id, seq, root, radix, key, tag):
        recv_stamp = fin.count_received(machine, ctx.image, key, tag,
                                        src=ctx.src)
        state = machine.coll_state(ctx.image, team_id, seq, _AState)
        state.child_values.append(ctx.payload)
        team = machine.team_by_id(team_id)
        _reduce_try_combine(machine, team, team.rank_of(ctx.image), seq,
                            root, radix, state, cause=recv_stamp)
        fin.count_completed(machine, ctx.image, key, recv_stamp)
    return handle_reduce_up


def _make_subtree_done_handler(machine):
    def handle_subtree_done(ctx, team_id, seq):
        state = machine.coll_state(ctx.image, team_id, seq, _AState)
        state.subtree_done_count += 1
        hook = getattr(state, "on_subtree_done", None)
        if hook is not None:
            hook()
    return handle_subtree_done


# --------------------------------------------------------------------- #
# Reduce / allreduce / barrier
# --------------------------------------------------------------------- #

def reduce_async(ctx, value: Any, recvbuf: Optional[np.ndarray] = None,
                 op: Any = "sum", root: int = 0,
                 team: Optional[Team] = None,
                 src_event=None, local_event=None,
                 radix: int = 2, _broadcast_result: bool = False,
                 result_buf: Optional[np.ndarray] = None) -> AsyncOp:
    """Asynchronously reduce each member's ``value`` to the root (written
    into the root's ``recvbuf`` if given).  With ``_broadcast_result``
    this becomes an allreduce: the combined value is broadcast back and
    written into every member's ``result_buf``."""
    machine = ctx.machine
    _ensure_handlers(machine)
    team = team if team is not None else ctx.team_world
    implicit = src_event is None and local_event is None
    key = _check_finish_team(ctx, team, implicit)
    machine.stats.incr("acoll.allreduce" if _broadcast_result
                       else "acoll.reduce")

    seq = machine.next_coll_seq(ctx.rank, team.id)
    state = machine.coll_state(ctx.rank, team.id, seq, _AState)
    aop = AsyncOp("allreduce_async" if _broadcast_result else "reduce_async")
    state.op = aop
    state.key = key
    state.src_event = _resolve_event(ctx, src_event)
    state.local_event = _resolve_event(ctx, local_event)
    state.have_own = True
    state.value = value
    state.reduce_op = sync.op_function(op)
    state.buf = result_buf if _broadcast_result else recvbuf
    state.phase2 = _broadcast_result
    my_tr = team.rank_of(ctx.rank)
    _reduce_try_combine(machine, team, my_tr, seq, root, radix, state,
                        cause=ctx.activation.cause)

    if implicit:
        ctx.activation.register(aop.make_pending(
            reads_local=True, writes_local=state.buf is not None,
            released=aop.local_op))
    return aop


def allreduce_async(ctx, value: Any, result_buf: Optional[np.ndarray] = None,
                    op: Any = "sum", team: Optional[Team] = None,
                    src_event=None, local_event=None,
                    radix: int = 2) -> AsyncOp:
    """Asynchronous allreduce (reduce to team rank 0, broadcast back)."""
    return reduce_async(
        ctx, value, op=op, root=0, team=team, src_event=src_event,
        local_event=local_event, radix=radix,
        _broadcast_result=True, result_buf=result_buf,
    )


def barrier_async(ctx, team: Optional[Team] = None,
                  src_event=None, local_event=None,
                  radix: int = 2) -> AsyncOp:
    """Asynchronous barrier: an allreduce of nothing.  The handle's
    ``local_op`` (or ``local_event``) fires when every member has
    arrived, as observed by this image."""
    return reduce_async(
        ctx, 0, op="sum", team=team, src_event=src_event,
        local_event=local_event, radix=radix,
        _broadcast_result=True, result_buf=None,
    )


def _reduce_try_combine(machine, team: Team, my_tr: int, seq: int,
                        root: int, radix: int, state: _AState,
                        cause=None) -> None:
    if not state.have_own or state.sent_up:
        return
    children = team.tree_children(my_tr, root, radix)
    if len(state.child_values) < len(children):
        return
    state.sent_up = True
    combined = state.value
    for v in state.child_values:
        combined = state.reduce_op(combined, v)
    w = team.world_rank(my_tr)
    parent_tr = team.tree_parent(my_tr, root, radix)
    if parent_tr is None:
        # Root: reduction complete here.
        if state.buf is not None:
            state.buf[...] = combined
        state.down_payload = combined
        if state.phase2:
            # Allreduce: fan the result back out on the broadcast plane.
            state.arrived = True
            state.arrived_payload = combined
            _bcast_forward(machine, team, my_tr, seq, root, radix, state,
                           combined, cause=cause)
            state.op.local_data.set_result(None)
            if state.src_event is not None:
                machine.post_event(state.src_event, from_rank=w)
            _maybe_local_op(machine, w, state)
        else:
            state.my_work_done = True
            state.op.local_data.set_result(None)
            if state.src_event is not None:
                machine.post_event(state.src_event, from_rank=w)
            _maybe_local_op(machine, w, state)
    else:
        inj = _tree_send(machine, w, team.world_rank(parent_tr), _REDUCE_UP,
                         team, seq, root, radix, state, combined,
                         cause).injected
        if state.phase2:
            # Non-root in an allreduce: completion comes with the
            # downward broadcast (handled by the bcast handler, which
            # needs a buffer target even when result_buf is None).
            if state.buf is None:
                state.buf = np.zeros(1)
        else:
            # Non-root in a rooted reduce: my role ends with my upward
            # send; my value has been read once I inject it.
            state.my_work_done = True
            chain(inj, state.op.local_data)
            if state.src_event is not None:
                inj.add_done_callback(
                    lambda _f: machine.post_event(state.src_event,
                                                  from_rank=w))
            _maybe_local_op(machine, w, state)


# --------------------------------------------------------------------- #
# Composite asynchronous collectives
# --------------------------------------------------------------------- #

def _composite(ctx, kind: str, team: Optional[Team], src_event, local_event,
               body) -> AsyncOp:
    """Run a synchronous collective algorithm in a background task and
    expose it through an AsyncOp (local_data == local_op == completion).

    ``body(result_slot)`` is a generator; it stores its result in
    ``result_slot[0]``.
    """
    machine = ctx.machine
    team = team if team is not None else ctx.team_world
    implicit = src_event is None and local_event is None
    key = _check_finish_team(ctx, team, implicit)
    machine.stats.incr(f"acoll.{kind}")
    op = AsyncOp(f"{kind}_async")
    src_ref = _resolve_event(ctx, src_event)
    local_ref = _resolve_event(ctx, local_event)
    result_slot = [None]

    # Hold back an enclosing finish until the composite completes: count
    # a synthetic self-addressed message whose delivery/completion land
    # when the internal task finishes (the underlying blocking collective
    # does not itself register with finish).
    stamp = fin.count_send(machine, ctx.rank, key, dst=ctx.rank,
                           cause=ctx.activation.cause)

    def runner():
        yield from body(result_slot)
        op.local_data.set_result(result_slot[0])
        if src_ref is not None:
            machine.post_event(src_ref, from_rank=ctx.rank)
        op.local_op.set_result(result_slot[0])
        if local_ref is not None:
            machine.post_event(local_ref, from_rank=ctx.rank)
        op.global_done.set_result(result_slot[0])
        if key is not None:
            fin.count_delivered(machine, ctx.rank, key, stamp)
            recv_stamp = fin.count_received(machine, ctx.rank, key,
                                            fin.wire_tag(stamp),
                                            src=ctx.rank)
            fin.count_completed(machine, ctx.rank, key, recv_stamp)

    machine.start_internal_task(runner(), name=f"{kind}_async@{ctx.rank}")
    if implicit:
        ctx.activation.register(op.make_pending(
            reads_local=True, writes_local=True, released=op.global_done))
    return op


def gather_async(ctx, value: Any, root: int = 0,
                 team: Optional[Team] = None,
                 src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous gather; the root's handle resolves to the list of
    member values (others to None)."""
    def body(slot):
        slot[0] = yield from sync.gather(ctx, value, root=root, team=team)
    return _composite(ctx, "gather", team, src_event, local_event, body)


def scatter_async(ctx, values: Optional[list], root: int = 0,
                  team: Optional[Team] = None,
                  src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous scatter; each member's handle resolves to its value."""
    def body(slot):
        slot[0] = yield from sync.scatter(ctx, values, root=root, team=team)
    return _composite(ctx, "scatter", team, src_event, local_event, body)


def allgather_async(ctx, value: Any, team: Optional[Team] = None,
                    src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous allgather; resolves to the list of member values."""
    def body(slot):
        slot[0] = yield from sync.allgather(ctx, value, team=team)
    return _composite(ctx, "allgather", team, src_event, local_event, body)


def alltoall_async(ctx, values: list, team: Optional[Team] = None,
                   src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous all-to-all; resolves to the values addressed to me."""
    def body(slot):
        slot[0] = yield from sync.alltoall(ctx, values, team=team)
    return _composite(ctx, "alltoall", team, src_event, local_event, body)


def scan_async(ctx, value: Any, op: Any = "sum",
               team: Optional[Team] = None, inclusive: bool = True,
               src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous prefix reduction; resolves to my prefix value."""
    def body(slot):
        slot[0] = yield from sync.scan(ctx, value, op=op, team=team,
                                       inclusive=inclusive)
    return _composite(ctx, "scan", team, src_event, local_event, body)


def sort_async(ctx, values: np.ndarray, team: Optional[Team] = None,
               src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous distributed sort; resolves to my sorted chunk."""
    def body(slot):
        slot[0] = yield from sync.sort(ctx, values, team=team)
    return _composite(ctx, "sort", team, src_event, local_event, body)
