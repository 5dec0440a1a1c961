"""Team collectives (paper §II-C.3): one staged engine.

Every collective is one row of :func:`start`, in one of two shapes
(DESIGN.md §3.3, "The collective engine", has the table).  A *tree* row
has an *up* phase (combine the members' contributions towards the root)
and/or a *down* phase (fan the root's value out), a contribution, and a
pure local ``finalize``; both phases run over a ``radix``-ary tree
rooted at ``root`` with real active messages (``coll.up`` /
``coll.down``), so the simulated cost is the expected ``O(log p)`` wire
latencies — the constant the paper's Fig. 12 micro-benchmark exposes.
A *per-pair* row runs numbered steps of point-to-point messages
(``coll.pair``): alltoall's direct exchange here, the ring allreduce and
the pipelined broadcast in :mod:`repro.core.collectives_algos`.

A *blocking* collective (this module's public functions — among them the
``allreduce`` that drives finish's termination detection, Fig. 7 line 8,
and the barrier that replaces ``SYNC ALL``, §V) is that start followed
by one wait on the record's result.  Its messages are neither
acknowledged nor counted against an enclosing finish: a blocking
collective is complete when it returns.  The ``*_async`` twins in
:mod:`repro.core.collectives_async` are the same start with a handle.

Collective calls on a team must be issued in the same order by every
member (SPMD discipline); a per-image, per-team sequence number matches
the calls up, so a message may reach an image before that image's
own call does.  Each image keeps one record per call, keyed
``(image, team id, seq)``: an arriving message looks it up by that key,
and only the record's first touch resolves the team, the image's tree
shape (memoized on the :class:`~repro.runtime.team.Team`) and the
handler arguments its sends carry.  A root outside the team or a radix
below 1 is refused at the call, before it takes a sequence number.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.sim.tasks import Future, all_of
from repro.runtime.event import event_ref
from repro.runtime.memory_model import classes_of
from repro.runtime.sizeof import sizeof
from repro.runtime.team import Team
from repro.net.active_messages import AMCategory
from repro.net.transport import Message
from repro.core.completion import AsyncOp, chain
from repro.core import finish as fin


_UP = "coll.up"
_DOWN = "coll.down"
_PAIR = "coll.pair"
_LONG = AMCategory.LONG


def _arrays(a: Any, b: Any) -> bool:
    return isinstance(a, np.ndarray) or isinstance(b, np.ndarray)


#: registered reduction operators, elementwise on numpy arrays; scalars
#: keep their own Python type
_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "prod": operator.mul,
    "max": lambda a, b: (np.maximum(a, b) if _arrays(a, b)
                         else a if a >= b else b),
    "min": lambda a, b: (np.minimum(a, b) if _arrays(a, b)
                         else a if a <= b else b),
}


class CollectiveUsageError(RuntimeError):
    """Misuse of an asynchronous collective (team/finish mismatch...)."""


def op_function(op: Any) -> Callable[[Any, Any], Any]:
    """Resolve an operator name (or pass a callable through)."""
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown reduction op {op!r}; expected one of {sorted(_OPS)} "
            "or a callable"
        ) from None


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #

class _Coll:
    """One image's record of one collective instance.

    Records are keyed ``(image, team id, seq)`` in the machine's table
    (``Machine._coll_states``) and are created by whichever comes
    first, the local call or a message; the first touch resolves the
    team, the image's tree shape and the handler arguments every send
    of the record carries.  A record leaves the table when the local
    call has happened and its last completion point has resolved (the
    result for a blocking call, ``local_op`` for a handle), so whatever
    is still listed after the event queue drained is stalled.
    """

    __slots__ = ("key", "world", "team", "me", "args", "parent", "children",
                 "called", "value", "combine", "finalize", "down",
                 "child_values", "sent_up", "arrived_value",
                 "result", "op", "buf", "src_event", "local_event",
                 "frame", "unacked",
                 "rounds", "step", "expect", "inbox", "sent")

    def __init__(self, key: tuple, team: Team, me: int, root: int,
                 radix: int, acked: bool, frame) -> None:
        self.key = key
        world, team_id, seq = key
        self.world = world
        self.team = team
        self.me = me
        #: world ranks: the parent (None on the root) and the children
        self.parent, self.children = team.tree_shape(me, root, radix)
        self.called = False
        self.child_values: list[Any] = []
        self.sent_up = False
        #: a down value that arrived before the local call, else _NOTHING
        self.arrived_value: Any = _NOTHING
        #: the value this image ends up with — what a blocking call
        #: returns, and a handle's ``local_data``
        self.result = Future("coll.result")
        #: the handle, or None for a blocking call
        self.op: Optional[AsyncOp] = None
        self.buf: Optional[np.ndarray] = None
        self.src_event = None
        self.local_event = None
        #: every send's handler arguments, the last of them whether the
        #: sends ask for a delivery ack; ``frame`` is the finish frame
        #: they are counted on (None: not counted).  Set by the local
        #: call — or, while that has not happened yet, by the message
        #: being forwarded, which carries both.
        self.args = (team_id, seq, root, radix, acked)
        self.frame = frame
        self.unacked = 0
        #: per-pair messages by the step they are for, {step: [(src,
        #: value)]}; None until a per-pair call or message needs it
        self.inbox: Optional[dict[int, list]] = None


#: ``arrived_value`` before a down value arrived
_NOTHING = object()


def register_handlers(machine) -> None:
    """Called once per machine, on the family's first use there: every
    collective message arrives through finish's counted arrival."""
    am = machine.am
    for name, on_message in ((_UP, _on_up), (_DOWN, _on_down),
                             (_PAIR, _on_pair)):
        am.register(name, partial(fin.arrival, machine,
                                  partial(on_message, machine)))


# The three handlers.  Each looks its record up by (image, team id, seq)
# and builds it on the record's first touch only.

def _record(machine, ctx, frame, team_id: int, seq: int, root: int,
            radix: int, acked: bool) -> _Coll:
    """This image's record of the collective a message belongs to.  When
    the message got here ahead of this image's own call, the record is
    built now, and what must be forwarded before the call moves on the
    sender's terms (``acked`` and the frame)."""
    key = (ctx.dst, team_id, seq)
    rec = machine._coll_states.get(key)
    if rec is None:
        team = machine.team_by_id(team_id)
        machine._coll_states[key] = rec = _Coll(
            key, team, team.rank_of(ctx.dst), root, radix, acked, frame)
    return rec


def _on_up(machine, ctx, frame, cause, team_id, seq, root, radix,
           acked) -> None:
    rec = _record(machine, ctx, frame, team_id, seq, root, radix, acked)
    rec.child_values.append(ctx.payload)
    _try_combine(machine, rec, cause)


def _on_down(machine, ctx, frame, cause, team_id, seq, root, radix,
             acked) -> None:
    rec = _record(machine, ctx, frame, team_id, seq, root, radix, acked)
    payload = ctx.payload
    _fan_out(machine, rec, payload, cause, ctx.size)
    if rec.called:
        _deliver(machine, rec, payload)
    else:
        rec.arrived_value = payload


def _on_pair(machine, ctx, frame, cause, team_id, seq, root, radix, acked,
             step: int, src: int) -> None:
    rec = _record(machine, ctx, frame, team_id, seq, root, radix, acked)
    if rec.inbox is None:
        rec.inbox = {}
    rec.inbox.setdefault(step, []).append((src, ctx.payload))
    if rec.called and step == rec.step:
        _advance(machine, rec, cause)


def _send(machine, rec: _Coll, dst: int, handler: str, payload: Any,
          size: int, cause, args: tuple) -> Message:
    """Send one message of ``size`` simulated bytes to world rank
    ``dst`` with handler arguments ``args`` and return it.  With a
    handle the message is acknowledged — the ack is the pairwise
    completion ``local_op`` is composed from — and, under implicit
    completion, counted on ``rec.frame``."""
    acked = rec.args[4]
    msg = fin.count_send(machine, rec.frame, cause, rec.world, dst, handler,
                         args, payload, size, _LONG, acked, handler)
    if acked:
        rec.unacked += 1
        msg.delivered.add_done_callback(partial(_on_ack, machine, rec))
    return msg


def _fan_out(machine, rec: _Coll, value: Any, cause,
             size: Optional[int] = None) -> list[Message]:
    """Down phase: send ``value`` to each child.  The root sizes its
    value here, once for all its children; an interior image passes the
    ``size`` its own message arrived with, so an allgather's p-entry
    value is not re-walked for every child at every hop."""
    sent = []
    if not rec.children:
        return sent
    if size is None:
        size = sizeof(value)
    args = rec.args
    for child in rec.children:
        sent.append(_send(machine, rec, child, _DOWN, value, size, cause,
                          args))
    return sent


def _try_combine(machine, rec: _Coll, cause) -> None:
    """Up phase: once the local call and every child's value are in,
    combine them and pass the result to the parent — or, on the root,
    end the up phase."""
    if (not rec.called or rec.sent_up
            or len(rec.child_values) < len(rec.children)):
        return
    rec.sent_up = True
    combined = rec.value
    for v in rec.child_values:
        combined = rec.combine(combined, v)
    if rec.parent is None:
        if rec.down:
            _fan_out(machine, rec, combined, cause)
        _deliver(machine, rec, combined)
    else:
        msg = _send(machine, rec, rec.parent, _UP, combined,
                    sizeof(combined), cause, rec.args)
        if not rec.down:
            # A non-root's role in a rooted collective ends with its
            # upward send; nothing comes back.
            _deliver(machine, rec, None, after=[msg])


def _advance(machine, rec: _Coll, cause) -> None:
    """Per-pair rounds, from the local call on: once every message the
    row expects for step ``rec.step`` is here, fold them into the value
    and enter the next step — its messages go out at once; after the
    last step, deliver (a handle's ``local_data`` also waits for the
    injection of every message this image sent)."""
    steps, plan, fold = rec.rounds
    while len(rec.inbox.get(rec.step, ())) >= rec.expect:
        for src, payload in rec.inbox.pop(rec.step, ()):
            fold(rec.value, rec.step, src, payload)
        rec.step += 1
        if rec.step == steps:
            _deliver(machine, rec, rec.value, after=rec.sent)
            return
        sends, rec.expect = plan(rec.step)
        for to, step, payload in sends:
            rec.sent.append(_send(
                machine, rec, rec.team.world_rank(to), _PAIR, payload,
                sizeof(payload), cause, rec.args + (step, rec.me)))


def _deliver(machine, rec: _Coll, value: Any, after=()) -> None:
    """This image's share of the data movement is over: ``value`` is what
    the messages left here.  Finalize it, write the destination buffer and
    resolve the result.  ``after`` lists the sends that carried my own
    contribution away; a handle's ``local_data`` waits for their
    injection (the source may be overwritten only then), a blocking call
    does not read it — its caller is suspended anyway."""
    if after and rec.op is not None:
        all_of([msg.injected for msg in after],
               "coll.injected").add_done_callback(
            lambda _f: _deliver(machine, rec, value))
        return
    try:
        if rec.finalize is not None:
            value = rec.finalize(rec.team, rec.me, value)
        if rec.buf is not None:
            rec.buf[...] = value
    except Exception as exc:  # noqa: BLE001 - handed on, see below
        # This runs inside an AM handler, but the failure (unequal sort
        # contributions, a user-supplied operator) is the caller's: it
        # shows on the result, like a transport failure on a message.
        rec.result.set_exception(exc)
    else:
        rec.result.set_result(value)
    if rec.op is None:
        del machine._coll_states[rec.key]
        return
    if rec.src_event is not None:
        machine.post_event(rec.src_event.event, rec.src_event.world_rank,
                           rec.world)
    _maybe_local_op(machine, rec)


def _on_ack(machine, rec: _Coll, _delivered) -> None:
    rec.unacked -= 1
    _maybe_local_op(machine, rec)


def _maybe_local_op(machine, rec: _Coll) -> None:
    """Local operation completion of a handle: my result is here and all
    my tree sends are acknowledged.  Re-checked as each ack lands and at
    the local call (forwards may be sent, even acknowledged, before it)."""
    if rec.op is None or rec.unacked or not rec.result.done:
        return
    chain(rec.result, rec.op.local_op)
    if rec.local_event is not None:
        machine.post_event(rec.local_event.event,
                           rec.local_event.world_rank, rec.world)
    del machine._coll_states[rec.key]


def _finish_frame(ctx, team: Team):
    """The finish frame an implicitly-completed collective is counted on
    (None outside finish), enforcing the §III-A.1 rule that its team is
    the finish team or a subset."""
    frame = ctx.current_frame()
    if (frame is not None and team is not frame.team
            and not team.is_subset_of(frame.team)):
        raise CollectiveUsageError(
            f"async collective team {team.id} is not a subset of the "
            f"enclosing finish team {frame.team.id} (paper §III-A.1)"
        )
    return frame


def member(ctx, team: Optional[Team]) -> tuple[Team, int]:
    """``(team, my team rank)`` with the world team as default; raises
    ValueError for a non-member."""
    team = team if team is not None else ctx.team_world
    return team, team.rank_of(ctx.rank)


def start(ctx, kind: str, team: Optional[Team], value: Any, *,
          root: int = 0, radix: int = 2, up: bool = True, down: bool = True,
          combine: Optional[Callable[[Any, Any], Any]] = None,
          finalize: Optional[Callable[[Team, int, Any], Any]] = None,
          handle: Optional[tuple] = None, stat: Optional[str] = None,
          rounds: Optional[tuple] = None) -> _Coll:
    """Begin one collective on this image and return its record.

    ``value`` is my contribution (ignored on non-roots of a down-only
    collective); ``combine`` merges two contributions on the way up;
    ``finalize(team, me, value)`` turns what the messages leave here into
    what this image ends up with.  A per-pair row passes ``rounds =
    (steps, plan, fold)`` instead of up/down: ``plan(step)`` returns the
    step's sends, ``[(team rank, receiver's step, value)]``, and how many
    messages the step waits for; ``fold(value, step, src, message)``
    folds each into ``value``.  ``handle`` is None for a blocking call
    — wait on ``record.result`` — or ``(buf, src_event, local_event)``
    for an asynchronous one, whose handle is ``record.op``: ``buf`` is
    written where the result lands, the events and implicit completion
    are as :mod:`repro.core.collectives_async` describes.  A ``root``
    that is not a team rank or a ``radix`` below 1 raises ValueError.
    """
    machine = ctx.machine
    world = ctx.rank
    # Everything that can reject the call comes before it takes a
    # sequence number or a record.
    team, me = member(ctx, team)
    size = len(team.members)
    if not 0 <= root < size:
        raise ValueError(
            f"{kind}: root {root} is not a rank of team {team.id} "
            f"(size {size})")
    if not radix >= 1:
        raise ValueError(
            f"{kind}: radix {radix} must be at least 1 (team {team.id}, "
            f"size {size})")
    if handle is None:
        machine.stats.counts[stat or "coll." + kind] += 1
        acked, frame = False, None
    else:
        buf, src_event, local_event = handle
        implicit = src_event is None and local_event is None
        if implicit:
            frame = _finish_frame(ctx, team)
        else:
            frame = None
            src_event = event_ref(src_event, world)
            local_event = event_ref(local_event, world)
        machine.stats.counts["acoll." + kind] += 1
        acked = True
    key = (world, team.id, ctx.image_state.next_coll_seq(team.id))
    states = machine._coll_states
    rec = states.get(key)
    if rec is None:
        rec = states[key] = _Coll(key, team, me, root, radix, acked, frame)
    elif acked:
        # Messages got here first; from now on this image sends on its
        # own call's terms.
        if not rec.args[4]:
            rec.args = rec.args[:4] + (True,)
        rec.frame = frame
    rec.called = True
    rec.value = value
    rec.combine = combine
    rec.finalize = finalize
    rec.down = down
    if handle is not None:
        rec.buf = buf if down or me == root else None
        rec.src_event = src_event
        rec.local_event = local_event
        # The handle's last point is local (see core.completion).
        local_op = Future("local_op")
        classes = classes_of(up or me == root,
                             rec.buf is not None or finalize is not None)
        rec.op = AsyncOp(kind + "_async", classes, rec.result, local_op,
                         local_op)
        if implicit:
            ctx.register(rec.op)
    cause = ctx.cause
    if rounds is not None:
        rec.rounds, rec.sent = rounds, []
        rec.step, rec.expect = -1, 0     # step 0 is entered at once
        if rec.inbox is None:
            rec.inbox = {}
        _advance(machine, rec, cause)
    elif up:
        _try_combine(machine, rec, cause)
    elif me == root:
        _deliver(machine, rec, value,
                 after=_fan_out(machine, rec, value, cause))
    elif rec.arrived_value is not _NOTHING:
        _deliver(machine, rec, rec.arrived_value)
    return rec


# --------------------------------------------------------------------- #
# The rows: each collective's start, shared by the blocking call below
# and the handle-returning twin in collectives_async
# --------------------------------------------------------------------- #

def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    out.update(b)
    return out


def _as_list(team: Team, me: int, merged: dict) -> list:
    return [merged[i] for i in range(team.size)]


def _root_list(team: Team, me: int, merged: Optional[dict]) -> Optional[list]:
    return None if merged is None else _as_list(team, me, merged)


def _mine(team: Team, me: int, full: list) -> Any:
    return full[me]


def _prefix(fn, inclusive: bool, team: Team, me: int, merged: dict) -> Any:
    stop = me + 1 if inclusive else me
    if stop == 0:
        return None
    acc = merged[0]
    for i in range(1, stop):
        acc = fn(acc, merged[i])
    return acc


def _sorted_chunk(team: Team, me: int, merged: dict) -> np.ndarray:
    chunks = _as_list(team, me, merged)
    if len({len(c) for c in chunks}) != 1:
        raise ValueError("sort requires equal-length contributions")
    n = len(chunks[me])
    return np.sort(np.concatenate(chunks))[me * n:(me + 1) * n]


def _split(machine, parent: Team, team: Team, me: int, merged: dict) -> Team:
    color = merged[me][0]
    members = sorted((k, w) for c, k, w in merged.values() if c == color)
    return machine.intern_team([w for _k, w in members], parent=parent)


def start_allreduce(ctx, value, op, team, radix, handle=None, root=0,
                    kind="allreduce", stat=None) -> _Coll:
    return start(ctx, kind, team, value, root=root, radix=radix,
                 combine=op_function(op), handle=handle, stat=stat)


def start_reduce(ctx, value, op, root, team, radix, handle=None) -> _Coll:
    return start(ctx, "reduce", team, value, root=root, radix=radix,
                 down=False, combine=op_function(op), handle=handle)


def start_broadcast(ctx, value, root, team, radix, handle=None,
                    kind="broadcast", finalize=None) -> _Coll:
    return start(ctx, kind, team, value, root=root, radix=radix,
                 up=False, finalize=finalize, handle=handle)


def start_scatter(ctx, values, root, team, radix, handle=None) -> _Coll:
    """The full list travels down the tree and each member picks its own
    value (no payload splitting per subtree)."""
    team, me = member(ctx, team)
    if me == root and (values is None or len(values) != team.size):
        raise ValueError(
            "scatter root must supply exactly one value per member")
    return start_broadcast(ctx, values, root, team, radix, handle,
                           "scatter", _mine)


def start_gather(ctx, value, root, team, radix, handle=None) -> _Coll:
    team, me = member(ctx, team)
    return start(ctx, "gather", team, {me: value}, root=root,
                 radix=radix, down=False, combine=_merge,
                 finalize=_root_list, handle=handle)


def start_allgather(ctx, value, team, radix, handle=None, kind="allgather",
                    finalize=_as_list) -> _Coll:
    team, me = member(ctx, team)
    return start(ctx, kind, team, {me: value}, radix=radix,
                 combine=_merge, finalize=finalize, handle=handle)


def _place(merged: dict, _step: int, src: int, value: Any) -> None:
    merged[src] = value


def start_alltoall(ctx, values, team, radix, handle=None) -> _Coll:
    """A direct exchange in one per-pair step: entry j goes straight to
    member j, and the p-1 entries addressed to me are placed as they
    come."""
    team, me = member(ctx, team)
    p = team.size
    if len(values) != p:
        raise ValueError("alltoall needs exactly one value per member")
    sends = [(j, 0, values[j]) for j in range(p) if j != me]
    return start(ctx, "alltoall", team, {me: values[me]}, radix=radix,
                 finalize=_as_list, handle=handle,
                 rounds=(1, lambda _step: (sends, p - 1), _place))


def start_scan(ctx, value, op, team, inclusive, radix, handle=None) -> _Coll:
    """Allgather + local prefix (depth ``O(log p)``, volume ``O(p)`` —
    adequate for a simulated runtime; a production scan would use a
    dedicated prefix tree)."""
    return start_allgather(ctx, value, team, radix, handle, "scan",
                           partial(_prefix, op_function(op), inclusive))


def start_sort(ctx, values, team, radix, handle=None) -> _Coll:
    """Gather-sort-scatter: every member sorts the concatenation and
    keeps its own chunk."""
    return start_allgather(ctx, np.asarray(values), team, radix, handle,
                           "sort", _sorted_chunk)


# --------------------------------------------------------------------- #
# Blocking collectives: start, then wait
# --------------------------------------------------------------------- #

def allreduce(ctx, value: Any, op: Any = "sum",
              team: Optional[Team] = None, radix: int = 2, root: int = 0,
              _stat: str = "coll.allreduce") -> Generator[Any, Any, Any]:
    """Blocking team allreduce; every member returns the combined value.
    This is the primitive finish's detectors call (``_stat`` keeps their
    waves apart from the program's own allreduces in ``machine.stats``)."""
    return (yield start_allreduce(ctx, value, op, team, radix, root=root,
                                  stat=_stat).result)


def reduce(ctx, value: Any, op: Any = "sum", root: int = 0,
           team: Optional[Team] = None, radix: int = 2
           ) -> Generator[Any, Any, Any]:
    """Blocking rooted reduction; the root returns the combined value,
    other members return None (their role ends with the upward send)."""
    return (yield start_reduce(ctx, value, op, root, team, radix).result)


def barrier(ctx, team: Optional[Team] = None, radix: int = 2
            ) -> Generator[Any, Any, None]:
    """Team barrier (the CAF 2.0 replacement for ``SYNC ALL``): an
    allreduce of nothing."""
    yield start_allreduce(ctx, 0, "sum", team, radix, kind="barrier").result


def broadcast(ctx, value: Any, root: int = 0,
              team: Optional[Team] = None, radix: int = 2
              ) -> Generator[Any, Any, Any]:
    """Blocking broadcast of the root's ``value`` to every member."""
    return (yield start_broadcast(ctx, value, root, team, radix).result)


def gather(ctx, value: Any, root: int = 0, team: Optional[Team] = None,
           radix: int = 2) -> Generator[Any, Any, Optional[list]]:
    """Blocking gather: the root returns ``[value of team rank 0, 1, ...]``,
    other members return None."""
    return (yield start_gather(ctx, value, root, team, radix).result)


def allgather(ctx, value: Any, team: Optional[Team] = None,
              radix: int = 2) -> Generator[Any, Any, list]:
    """Blocking allgather: every member returns the list of values."""
    return (yield start_allgather(ctx, value, team, radix).result)


def scan(ctx, value: Any, op: Any = "sum", team: Optional[Team] = None,
         inclusive: bool = True, radix: int = 2) -> Generator[Any, Any, Any]:
    """Blocking prefix reduction over team ranks.  Exclusive scan returns
    None on team rank 0."""
    return (yield start_scan(ctx, value, op, team, inclusive, radix).result)


def scatter(ctx, values: Optional[list], root: int = 0,
            team: Optional[Team] = None, radix: int = 2
            ) -> Generator[Any, Any, Any]:
    """Blocking scatter: the root supplies one value per team rank; each
    member returns its own.  Non-roots pass ``values=None``."""
    return (yield start_scatter(ctx, values, root, team, radix).result)


def alltoall(ctx, values: list, team: Optional[Team] = None,
             radix: int = 2) -> Generator[Any, Any, list]:
    """Blocking all-to-all: member i supplies ``values[j]`` for member j
    and returns the list of values addressed to it."""
    return (yield start_alltoall(ctx, values, team, radix).result)


def sort(ctx, values: np.ndarray, team: Optional[Team] = None,
         radix: int = 2) -> Generator[Any, Any, np.ndarray]:
    """Blocking distributed sort: each member contributes an equal-length
    array; the concatenation is sorted and member i receives the i-th
    sorted chunk."""
    return (yield start_sort(ctx, values, team, radix).result)


def team_split(ctx, team: Team, color: int, key: int
               ) -> Generator[Any, Any, Team]:
    """Collectively split ``team`` into sub-teams by ``color``, ordered by
    ``(key, world rank)`` (paper §II-A).  Every member returns its new
    team; the Team object is shared (interned) across members."""
    return (yield start_allgather(
        ctx, (color, key, ctx.rank), team, 2, kind="team_split",
        finalize=partial(_split, ctx.machine, team)).result)
