"""Predicated asynchronous copies (paper §II-C.1).

::

    copy_async(dest, src, pre_event=..., src_event=..., dest_event=...)

``dest``/``src`` are either :class:`~repro.runtime.coarray.CoarrayRef`
handles (possibly remote) or local numpy buffers of the initiating image.
All placement combinations are supported:

- local → remote (*put path*): one data message;
- remote → local (*get path*): a request plus a data reply;
- remote → remote (*forward path*): the initiator sends a control
  message to the source image, which puts to the destination and has it
  confirm back to the initiator;
- local → local: a memcpy charged at memory bandwidth.

Events (all optional, each a local :class:`EventVar` or a remote
:class:`EventRef`):

- ``pre_event``  — the copy proceeds only after this event is posted
  (one post is consumed);
- ``src_event``  — posted when the source data has been read (the source
  buffer may be overwritten);
- ``dest_event`` — posted when the data has been delivered to the
  destination buffer.

When no completion event is given the copy uses *implicit completion*:
it registers on the activation for ``cofence`` and is counted against the
enclosing ``finish`` frame.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Optional, Union

import numpy as np

from repro.sim.tasks import Future, any_of
from repro.runtime.coarray import CoarrayRef
from repro.runtime.event import event_ref
from repro.runtime.memory_model import classes_of
from repro.net.active_messages import AMCategory
from repro.core.completion import AsyncOp, chain
from repro.core import finish as fin

_PUT = "copy.put"
_GET_REQ = "copy.get_req"
_DATA = "copy.data"
_FWD = "copy.fwd"
_DONE = "copy.done"

_tokens = itertools.count(1)


class _Loc:
    """Normalized endpoint: a coarray ref, or a local buffer of the
    initiator."""

    __slots__ = ("ref", "buffer", "rank")

    def __init__(self, ref: Optional[CoarrayRef], buffer: Optional[np.ndarray],
                 rank: int):
        self.ref = ref
        self.buffer = buffer
        self.rank = rank

    @property
    def nbytes(self) -> int:
        if self.ref is not None:
            return self.ref.nbytes
        return int(self.buffer.nbytes)

    def read(self) -> np.ndarray:
        if self.ref is not None:
            return self.ref.read()
        return np.copy(self.buffer)

    def write(self, data: Any) -> None:
        if self.ref is not None:
            self.ref.write(data)
        else:
            self.buffer[...] = data


def _normalize(ctx, x: Union[CoarrayRef, np.ndarray], what: str) -> _Loc:
    if isinstance(x, CoarrayRef):
        return _Loc(x, None, x.world_rank)
    if isinstance(x, np.ndarray):
        return _Loc(None, x, ctx.rank)
    if what == "src" and isinstance(x, (np.generic, int, float, complex)):
        # Scalars are fine as sources (a value to write); destinations
        # must be writable storage.
        return _Loc(None, np.asarray(x), ctx.rank)
    raise TypeError(
        f"copy_async {what} must be a CoarrayRef or a local numpy array, "
        f"got {type(x).__name__}"
    )


def register_handlers(machine) -> None:
    """Called once per machine, on the family's first use there: every
    family but ``copy.done`` is a counted message (finish's arrival)."""
    am = machine.am
    for name, make in ((_PUT, _make_put_handler),
                       (_GET_REQ, _make_get_req_handler),
                       (_DATA, _make_data_handler),
                       (_FWD, _make_fwd_handler)):
        am.register(name, partial(fin.arrival, machine, make(machine)))
    am.register(_DONE, _make_done_handler(machine))


def _make_put_handler(machine):
    def handle_put(ctx, _frame, _stamp, ref: CoarrayRef, dest_event,
                   done_token, done_rank):
        ref.write(ctx.payload)
        if dest_event is not None:
            machine.post_event(dest_event.event, dest_event.world_rank,
                               ctx.dst)
        if done_token is not None:
            machine.am.request_nb(
                ctx.dst, done_rank, _DONE, args=(done_token,),
                category=AMCategory.SHORT, kind="copy.done",
            )
    return handle_put


def _make_get_req_handler(machine):
    def handle_get_req(ctx, frame, stamp, ref: CoarrayRef, token, src_event,
                       reply_rank):
        data = ref.read()
        if src_event is not None:
            machine.post_event(src_event.event, src_event.world_rank,
                               ctx.dst)
        fin.count_send(machine, frame, stamp, ctx.dst, reply_rank, _DATA,
                       (token,), payload=data,
                       payload_size=int(np.asarray(data).nbytes),
                       category=AMCategory.LONG, kind="copy.data")
    return handle_get_req


def _make_data_handler(machine):
    def handle_data(ctx, _frame, _stamp, token):
        complete = machine.scratch.pop(("copy.token", token))
        complete(ctx.payload)
    return handle_data


def _make_fwd_handler(machine):
    def handle_fwd(ctx, frame, stamp, src_ref: CoarrayRef,
                   dest_ref: CoarrayRef, src_event, dest_event, done_token,
                   done_rank):
        data = src_ref.read()
        if src_event is not None:
            machine.post_event(src_event.event, src_event.world_rank,
                               ctx.dst)
        fin.count_send(machine, frame, stamp, ctx.dst, dest_ref.world_rank,
                       _PUT, (dest_ref, dest_event, done_token, done_rank),
                       payload=data,
                       payload_size=int(np.asarray(data).nbytes),
                       category=AMCategory.LONG, kind="copy.put")
    return handle_fwd


def _make_done_handler(machine):
    def handle_done(ctx, token):
        complete = machine.scratch.pop(("copy.token", token))
        complete(None)
    return handle_done


# --------------------------------------------------------------------- #
# The operation
# --------------------------------------------------------------------- #

def copy_async(ctx, dest: Union[CoarrayRef, np.ndarray],
               src: Union[CoarrayRef, np.ndarray],
               pre_event=None, src_event=None, dest_event=None,
               _explicit: bool = False) -> AsyncOp:
    """Initiate an asynchronous copy; returns immediately with the handle
    (the return guarantees initiation completion only, §I).

    ``_explicit`` forces explicit-completion treatment even without
    events (used by the blocking get/put wrappers, which synchronize on
    the handle themselves and must not be finish-counted).
    """
    machine = ctx.machine
    d = _normalize(ctx, dest, "dest")
    s = _normalize(ctx, src, "src")
    pre = None if pre_event is None else event_ref(pre_event, ctx.rank)
    src_ev = None if src_event is None else event_ref(src_event, ctx.rank)
    dest_ev = (None if dest_event is None
               else event_ref(dest_event, ctx.rank))

    implicit = src_event is None and dest_event is None and not _explicit
    frame = ctx.current_frame() if implicit else None
    machine.stats.counts["copy.initiated"] += 1

    src_local = s.rank == ctx.rank
    dest_local = d.rank == ctx.rank
    start = (_start_local if src_local and dest_local else
             _start_put if src_local else
             _start_get if dest_local else _start_forward)

    # An unpredicated copy is under way before its handle exists, so the
    # handle is the started copy's completion points themselves.  A
    # predicated one hands its handle out first and follows them later.
    classes = classes_of(src_local, dest_local)
    if pre is None:
        op = AsyncOp("copy", classes, *start(ctx, machine, d, s, frame,
                                             src_ev, dest_ev))
    else:
        op = AsyncOp("copy", classes)
    if implicit:
        ctx.register(op)

    racecheck = machine.racecheck
    rcop = (racecheck.copy_begin(ctx, op, implicit,
                                 predicated=pre is not None)
            if racecheck is not None else None)
    if pre is None:
        if rcop is not None:
            racecheck.copy_started(ctx, rcop, implicit, d, s, pre, src_ev,
                                   dest_ev)
        return op

    op.started = False

    def launch() -> None:
        op.started = True
        if rcop is not None:
            racecheck.copy_started(ctx, rcop, implicit, d, s, pre, src_ev,
                                   dest_ev)
        local_data, local_op, global_done = start(
            ctx, machine, d, s, frame, src_ev, dest_ev)
        chain(local_data, op.local_data)
        chain(local_op, op.local_op)
        chain(global_done, op.global_done)

    machine.when_event(pre, ctx.rank, launch)
    return op


def _start_local(ctx, machine, d: _Loc, s: _Loc, frame,
                 src_ev, dest_ev) -> tuple:
    """Both endpoints on the initiator: a memcpy at memory bandwidth;
    every completion point is the moment it lands."""
    data = s.read()
    delay = max(machine.params.o_send,
                machine.params.transfer_time(s.nbytes))
    done = Future("copy.local")

    def apply() -> None:
        d.write(data)
        if src_ev is not None:
            machine.post_event(src_ev.event, src_ev.world_rank, ctx.rank)
        if dest_ev is not None:
            machine.post_event(dest_ev.event, dest_ev.world_rank, ctx.rank)
        done.set_result(None)

    machine.sim.schedule(delay, apply)
    return done, done, done


def _start_put(ctx, machine, d: _Loc, s: _Loc, frame,
               src_ev, dest_ev) -> tuple:
    """Source on the initiator, destination remote: one data message,
    whose completion is the copy's."""
    msg = fin.count_send(
        machine, frame, ctx.cause, ctx.rank, d.rank, _PUT,
        (d.ref, dest_ev, None, None), payload=s.read(),
        payload_size=s.nbytes, category=AMCategory.LONG, want_ack=True,
        kind="copy.put")
    if src_ev is not None:
        msg.injected.add_done_callback(
            lambda _f: machine.post_event(src_ev.event, src_ev.world_rank,
                                          ctx.rank))
    # Local data completion: the NIC has read the source buffer.  Local
    # operation completion == global completion for a put from the
    # initiator (§I: "for an asynchronous copy from p to q initiated by
    # p, local data completion and local operation completion are
    # equivalent" — on the *source* side; delivery is what the ack tells
    # us, which is both this image's last pairwise communication and the
    # operation's global completion).
    return msg.injected, msg.delivered, msg.delivered


def _start_get(ctx, machine, d: _Loc, s: _Loc, frame,
               src_ev, dest_ev) -> tuple:
    """Source remote, destination on the initiator: request + reply;
    every completion point is the reply landing in the destination."""
    token = next(_tokens)
    done = Future("copy.get")

    def complete(data) -> None:
        d.write(data)
        if dest_ev is not None:
            machine.post_event(dest_ev.event, dest_ev.world_rank, ctx.rank)
        done.set_result(None)

    machine.scratch[("copy.token", token)] = complete
    fin.count_send(machine, frame, ctx.cause, ctx.rank, s.rank,
                   _GET_REQ, (s.ref, token, src_ev, ctx.rank),
                   category=AMCategory.SHORT, kind="copy.get_req")
    return done, done, done


def _start_forward(ctx, machine, d: _Loc, s: _Loc, frame,
                   src_ev, dest_ev) -> tuple:
    """Both endpoints remote: control to the source image, which puts to
    the destination; the destination confirms back to the initiator."""
    token = next(_tokens)
    global_done = Future("copy.fwd")
    machine.scratch[("copy.token", token)] = global_done.set_result
    msg = fin.count_send(
        machine, frame, ctx.cause, ctx.rank, s.rank, _FWD,
        (s.ref, d.ref, src_ev, dest_ev, token, ctx.rank),
        category=AMCategory.SHORT, want_ack=True, kind="copy.fwd")
    # The initiator's buffers are never touched: its local-data point is
    # the injection of the control message (argument evaluation done);
    # its last pairwise communication is that message's delivery — which
    # a copy.done that beats a lost ack's retransmission proves too.
    local_op = any_of([msg.delivered, global_done], "copy.fwd.local_op")
    return msg.injected, local_op, global_done
