"""Synchronous (blocking) team collectives.

These are the building blocks the runtime itself relies on — most
importantly the team ``allreduce`` that drives finish's termination
detection (paper Fig. 7, line 8) and the team barrier that replaces
Fortran 2008's ``SYNC ALL`` (§V).

All collectives are implemented with real tree messages over the active
message layer (radix-2 by default), so their simulated cost is the
expected ``O(log p)`` wire latencies — the constant the paper's Fig. 12
micro-benchmark exposes.

Collective calls on a team must be issued in the same order by every
member (SPMD discipline); a per-image, per-team sequence number matches
the calls up.  Messages here are *not* counted against enclosing finish
blocks: a blocking collective is complete when it returns.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.sim.tasks import Future
from repro.runtime.sizeof import sizeof
from repro.runtime.team import Team
from repro.net.active_messages import AMCategory


_UP = "coll.up"
_DOWN = "coll.down"

#: registered reduction operators
_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
}


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


class _CollState:
    """Per-image state of one collective instance.

    Instances are keyed (image, team, seq) and may be created either by
    the local call or by an early-arriving tree message.
    """

    def __init__(self) -> None:
        self.have_own = False
        self.value: Any = None
        self.op: Optional[Callable] = None
        self.radix = 2
        self.root = 0
        self.child_values: list[Any] = []
        self.sent_up = False
        self.down = Future("coll.down")
        self.is_reduce_only = False


def _ensure_handlers(machine) -> None:
    am = machine.am
    if am.is_registered(_UP):
        return
    am.register(_UP, _make_up_handler(machine))
    am.register(_DOWN, _make_down_handler(machine))


def _make_up_handler(machine):
    def handle_up(ctx, team_id: int, seq: int, root: int, radix: int):
        state = machine.coll_state(ctx.image, team_id, seq, _CollState)
        state.child_values.append(ctx.payload)
        _try_combine(machine, ctx.image, team_id, seq, state, root, radix)
    return handle_up


def _make_down_handler(machine):
    def handle_down(ctx, team_id: int, seq: int, root: int, radix: int):
        team = machine.team_by_id(team_id)
        my_tr = team.rank_of(ctx.image)
        state = machine.coll_state(ctx.image, team_id, seq, _CollState)
        _send_down(machine, team, my_tr, seq, root, radix, ctx.payload)
        state.down.set_result(ctx.payload)
    return handle_down


def _send_down(machine, team: Team, my_tr: int, seq: int, root: int,
               radix: int, value: Any) -> None:
    for child_tr in team.tree_children(my_tr, root, radix):
        machine.am.request_nb(
            team.world_rank(my_tr), team.world_rank(child_tr), _DOWN,
            args=(team.id, seq, root, radix),
            payload=value, payload_size=sizeof(value),
            category=AMCategory.LONG, kind="coll.down",
        )


def _try_combine(machine, world_rank: int, team_id: int, seq: int,
                 state: _CollState, root: int, radix: int) -> None:
    if not state.have_own or state.sent_up:
        return
    team = machine.team_by_id(team_id)
    my_tr = team.rank_of(world_rank)
    children = team.tree_children(my_tr, root, radix)
    if len(state.child_values) < len(children):
        return
    state.sent_up = True
    combined = state.value
    for v in state.child_values:
        combined = state.op(combined, v)
    parent_tr = team.tree_parent(my_tr, root, radix)
    if parent_tr is None:
        # I am the root: begin the downward phase (or finish, for reduce).
        if not state.is_reduce_only:
            _send_down(machine, team, my_tr, seq, root, radix, combined)
        state.down.set_result(combined)
    else:
        machine.am.request_nb(
            world_rank, team.world_rank(parent_tr), _UP,
            args=(team_id, seq, root, radix),
            payload=combined, payload_size=sizeof(combined),
            category=AMCategory.LONG, kind="coll.up",
        )
        if state.is_reduce_only:
            # Non-root's role in a rooted reduce ends with its upward send.
            state.down.set_result(None)


# --------------------------------------------------------------------- #
# Public collectives
# --------------------------------------------------------------------- #

def allreduce(ctx, value: Any, op: Any = "sum",
              team: Optional[Team] = None, radix: int = 2,
              root: int = 0, _reduce_only: bool = False,
              _stat: str = "coll.allreduce") -> Generator[Any, Any, Any]:
    """Blocking team allreduce; every member returns the combined value.

    This is the primitive finish's detector calls; the harness counts its
    invocations through ``machine.stats`` (key ``coll.allreduce``).
    """
    team = team if team is not None else ctx.team_world
    machine = ctx.machine
    _ensure_handlers(machine)
    if ctx.rank not in team:
        raise ValueError(f"image {ctx.rank} is not in team {team.id}")
    machine.stats.incr(_stat)
    seq = machine.next_coll_seq(ctx.rank, team.id)
    state = machine.coll_state(ctx.rank, team.id, seq, _CollState)
    state.have_own = True
    state.value = value
    state.op = op_function(op)
    state.is_reduce_only = _reduce_only
    _try_combine(machine, ctx.rank, team.id, seq, state, root, radix)
    result = yield state.down
    machine.drop_coll_state(ctx.rank, team.id, seq)
    return result


def reduce(ctx, value: Any, op: Any = "sum", root: int = 0,
           team: Optional[Team] = None, radix: int = 2
           ) -> Generator[Any, Any, Any]:
    """Blocking rooted reduction; the root returns the combined value,
    other members return None (their role ends with the upward send)."""
    return (yield from allreduce(
        ctx, value, op=op, team=team, radix=radix, root=root,
        _reduce_only=True, _stat="coll.reduce",
    ))


def barrier(ctx, team: Optional[Team] = None, radix: int = 2
            ) -> Generator[Any, Any, None]:
    """Team barrier (the CAF 2.0 replacement for ``SYNC ALL``)."""
    yield from allreduce(ctx, 0, op="sum", team=team, radix=radix,
                         _stat="coll.barrier")


def broadcast(ctx, value: Any, root: int = 0,
              team: Optional[Team] = None, radix: int = 2
              ) -> Generator[Any, Any, Any]:
    """Blocking broadcast of the root's ``value`` to every member."""
    team = team if team is not None else ctx.team_world
    machine = ctx.machine
    _ensure_handlers(machine)
    machine.stats.incr("coll.broadcast")
    seq = machine.next_coll_seq(ctx.rank, team.id)
    state = machine.coll_state(ctx.rank, team.id, seq, _CollState)
    my_tr = team.rank_of(ctx.rank)
    if my_tr == root:
        _send_down(machine, team, my_tr, seq, root, radix, value)
        state.down.set_result(value)
    result = yield state.down
    machine.drop_coll_state(ctx.rank, team.id, seq)
    return result


def gather(ctx, value: Any, root: int = 0, team: Optional[Team] = None,
           radix: int = 2) -> Generator[Any, Any, Optional[list]]:
    """Blocking gather: the root returns ``[value of team rank 0, 1, ...]``,
    other members return None."""
    team = team if team is not None else ctx.team_world
    my_tr = team.rank_of(ctx.rank)

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        out.update(b)
        return out

    combined = yield from allreduce(
        ctx, {my_tr: value}, op=merge, team=team, radix=radix, root=root,
        _reduce_only=True, _stat="coll.gather",
    )
    if combined is None:
        return None
    return [combined[i] for i in range(team.size)]


def allgather(ctx, value: Any, team: Optional[Team] = None,
              radix: int = 2) -> Generator[Any, Any, list]:
    """Blocking allgather (gather + broadcast)."""
    team = team if team is not None else ctx.team_world
    my_tr = team.rank_of(ctx.rank)

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        out.update(b)
        return out

    combined = yield from allreduce(
        ctx, {my_tr: value}, op=merge, team=team, radix=radix,
        _stat="coll.allgather",
    )
    return [combined[i] for i in range(team.size)]


def scan(ctx, value: Any, op: Any = "sum", team: Optional[Team] = None,
         inclusive: bool = True, radix: int = 2) -> Generator[Any, Any, Any]:
    """Blocking prefix reduction over team ranks.

    Implemented as allgather + local prefix (depth ``O(log p)``, volume
    ``O(p)`` — adequate for a simulated runtime; a production scan would
    use a dedicated prefix tree).
    Exclusive scan returns None on team rank 0.
    """
    team = team if team is not None else ctx.team_world
    fn = op_function(op)
    values = yield from allgather(ctx, value, team=team, radix=radix)
    my_tr = team.rank_of(ctx.rank)
    stop = my_tr + 1 if inclusive else my_tr
    if stop == 0:
        return None
    acc = values[0]
    for v in values[1:stop]:
        acc = fn(acc, v)
    return acc


def scatter(ctx, values: Optional[list], root: int = 0,
            team: Optional[Team] = None, radix: int = 2
            ) -> Generator[Any, Any, Any]:
    """Blocking scatter: the root supplies one value per team rank; each
    member returns its own.  Non-roots pass ``values=None``.

    Implemented as a broadcast of the full list (tree scatter with payload
    splitting is left to the asynchronous variant).
    """
    team = team if team is not None else ctx.team_world
    my_tr = team.rank_of(ctx.rank)
    if my_tr == root:
        if values is None or len(values) != team.size:
            raise ValueError(
                "scatter root must supply exactly one value per member"
            )
    full = yield from broadcast(ctx, values, root=root, team=team,
                                radix=radix)
    return full[my_tr]


def alltoall(ctx, values: list, team: Optional[Team] = None,
             radix: int = 2) -> Generator[Any, Any, list]:
    """Blocking all-to-all: member i supplies ``values[j]`` for member j
    and returns the list of values addressed to it."""
    team = team if team is not None else ctx.team_world
    if len(values) != team.size:
        raise ValueError("alltoall needs exactly one value per member")
    my_tr = team.rank_of(ctx.rank)
    rows = yield from allgather(ctx, values, team=team, radix=radix)
    return [rows[j][my_tr] for j in range(team.size)]


def sort(ctx, values: np.ndarray, team: Optional[Team] = None,
         radix: int = 2) -> Generator[Any, Any, np.ndarray]:
    """Blocking distributed sort: each member contributes an equal-length
    array; the concatenation is sorted and redistributed so that member i
    receives the i-th sorted chunk (gather-sort-scatter algorithm)."""
    team = team if team is not None else ctx.team_world
    values = np.asarray(values)
    chunks = yield from allgather(ctx, values, team=team, radix=radix)
    if len({len(c) for c in chunks}) != 1:
        raise ValueError("sort requires equal-length contributions")
    merged = np.sort(np.concatenate(chunks))
    n = len(values)
    my_tr = team.rank_of(ctx.rank)
    return merged[my_tr * n:(my_tr + 1) * n]


def team_split(ctx, team: Team, color: int, key: int
               ) -> Generator[Any, Any, Team]:
    """Collectively split ``team`` into sub-teams by ``color``, ordered by
    ``(key, world rank)`` (paper §II-A).  Every member returns its new
    team; the Team object is shared (interned) across members."""
    machine = ctx.machine
    machine.stats.incr("coll.team_split")
    triples = yield from allgather(ctx, (color, key, ctx.rank), team=team)
    groups: dict[int, list[tuple[int, int]]] = {}
    for c, k, w in triples:
        groups.setdefault(c, []).append((k, w))
    my_color = color
    members = [w for _k, w in sorted(groups[my_color])]
    return machine.intern_team(members, parent=team)
