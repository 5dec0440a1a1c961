"""Bandwidth-optimal collective algorithms for array payloads.

The tree collectives in :mod:`repro.core.collectives` are latency-
optimal (O(log p) hops) but move the whole payload at every level —
fine for the scalar reductions finish performs, wasteful for large
arrays.  This module adds the classic bandwidth-optimal algorithms a
production CAF 2.0 runtime would select for bulk data (§II-C.3's
collective "vision"):

- :func:`ring_allreduce` — ring reduce-scatter followed by ring
  allgather (Rabenseifner's decomposition): 2(p-1) messages of n/p
  elements each, total traffic 2n(p-1)/p per image regardless of p;
- :func:`pipelined_broadcast` — the root streams the payload in
  segments down a chain; with enough segments every link stays busy and
  the completion time approaches n/B + (p-2+s) hops instead of
  ceil(log2 p) x n/B.

Both are blocking (use ``yield from``) and match instances across
images with the same per-team sequence numbers as the tree collectives,
so they interleave safely with them under SPMD discipline.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.sim.tasks import Condition
from repro.runtime.team import Team
from repro.net.active_messages import AMCategory
from repro.core.collectives import op_function

#: elementwise equivalents of the named operators (the scalar lambdas in
#: collectives.op_function do not broadcast over arrays)
_ARRAY_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


def array_op_function(op: Any):
    """Resolve a reduction operator for elementwise array use."""
    if callable(op):
        return op
    try:
        return _ARRAY_OPS[op]
    except KeyError:
        return op_function(op)  # raises with the canonical message

_RING = "algcoll.ring"
_PIPE = "algcoll.pipe"


class _RingState:
    """Per-image buffers for one ring-collective instance."""

    def __init__(self, sim):
        self.chunks: dict[tuple[int, int], np.ndarray] = {}
        self.cond = Condition(sim, "ring")


def register_handlers(machine) -> None:
    """Called once per machine, on the family's first use there."""
    am = machine.am

    def handle_ring(ctx, team_id, seq, step, chunk_idx):
        state = machine.coll_state(ctx.image, team_id, seq, _make_state(machine))
        state.chunks[(step, chunk_idx)] = ctx.payload
        state.cond.wake()

    am.register(_RING, handle_ring)
    am.register(_PIPE, handle_ring)  # same buffering


def _make_state(machine):
    return lambda: _RingState(machine.sim)


def _state(machine, rank, team_id, seq) -> _RingState:
    return machine.coll_state(rank, team_id, seq, _make_state(machine))


def _chunk_bounds(n: int, p: int, idx: int) -> tuple[int, int]:
    """Bounds of chunk ``idx`` when n elements split into p near-equal
    contiguous chunks."""
    base, extra = divmod(n, p)
    lo = idx * base + min(idx, extra)
    hi = lo + base + (1 if idx < extra else 0)
    return lo, hi


def ring_allreduce(ctx, array: np.ndarray, op: Any = "sum",
                   team: Optional[Team] = None
                   ) -> Generator[Any, Any, np.ndarray]:
    """Bandwidth-optimal allreduce of a numpy array; every member passes
    its contribution and receives the elementwise reduction in place
    (also returned)."""
    team = team if team is not None else ctx.team_world
    machine = ctx.machine
    machine.stats.incr("algcoll.ring_allreduce")
    fn = array_op_function(op)
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError("ring_allreduce expects a 1-D array")

    p = team.size
    seq = machine.next_coll_seq(ctx.rank, team.id)
    if p == 1:
        return array
    state = _state(machine, ctx.rank, team.id, seq)
    me = team.rank_of(ctx.rank)
    right = team.world_rank((me + 1) % p)

    work = array.copy()

    def send(step: int, chunk_idx: int) -> None:
        lo, hi = _chunk_bounds(len(work), p, chunk_idx)
        payload = np.copy(work[lo:hi])
        machine.am.request_nb(
            ctx.rank, right, _RING,
            args=(team.id, seq, step, chunk_idx),
            payload=payload, payload_size=int(payload.nbytes),
            category=AMCategory.LONG, kind="algcoll.ring",
        )

    # Phase 1: reduce-scatter.  At step s I send the running reduction
    # of chunk (me - s) and fold the incoming chunk (me - s - 1).
    for step in range(p - 1):
        send(step, (me - step) % p)
        want = (step, (me - step - 1) % p)
        yield from state.cond.wait_until(lambda w=want: w in state.chunks)
        incoming = state.chunks.pop(want)
        lo, hi = _chunk_bounds(len(work), p, (me - step - 1) % p)
        work[lo:hi] = fn(work[lo:hi], incoming)

    # Phase 2: allgather the completed chunks around the ring.
    for step in range(p - 1):
        send(p - 1 + step, (me + 1 - step) % p)
        want = (p - 1 + step, (me - step) % p)
        yield from state.cond.wait_until(lambda w=want: w in state.chunks)
        incoming = state.chunks.pop(want)
        lo, hi = _chunk_bounds(len(work), p, (me - step) % p)
        work[lo:hi] = incoming

    machine.drop_coll_state(ctx.rank, team.id, seq)
    array[...] = work
    return array


def pipelined_broadcast(ctx, array: np.ndarray, root: int = 0,
                        team: Optional[Team] = None,
                        segments: int = 8
                        ) -> Generator[Any, Any, np.ndarray]:
    """Chain-pipelined broadcast of a numpy array in ``segments``
    pieces; the root's content ends up in every member's ``array``."""
    team = team if team is not None else ctx.team_world
    machine = ctx.machine
    machine.stats.incr("algcoll.pipelined_broadcast")
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError("pipelined_broadcast expects a 1-D array")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    segments = min(segments, max(1, len(array)))

    p = team.size
    seq = machine.next_coll_seq(ctx.rank, team.id)
    if p == 1:
        return array
    state = _state(machine, ctx.rank, team.id, seq)
    me = team.rank_of(ctx.rank)
    pos = (me - root) % p            # my position along the chain
    next_world = team.world_rank((me + 1) % p) if pos < p - 1 else None

    def send_segment(idx: int) -> None:
        lo, hi = _chunk_bounds(len(array), segments, idx)
        payload = np.copy(array[lo:hi])
        machine.am.request_nb(
            ctx.rank, next_world, _PIPE,
            args=(team.id, seq, 0, idx),
            payload=payload, payload_size=int(payload.nbytes),
            category=AMCategory.LONG, kind="algcoll.pipe",
        )

    if pos == 0:
        for idx in range(segments):
            send_segment(idx)
    else:
        for idx in range(segments):
            want = (0, idx)
            yield from state.cond.wait_until(
                lambda w=want: w in state.chunks)
            incoming = state.chunks.pop(want)
            lo, hi = _chunk_bounds(len(array), segments, idx)
            array[lo:hi] = incoming
            if next_world is not None:
                send_segment(idx)

    machine.drop_coll_state(ctx.rank, team.id, seq)
    return array
