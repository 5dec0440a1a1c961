"""Bandwidth-optimal collective algorithms for array payloads.

The tree collectives in :mod:`repro.core.collectives` are latency-
optimal (O(log p) hops) but move the whole payload at every level —
fine for the scalar reductions finish performs, wasteful for large
arrays.  These are the classic bandwidth-optimal algorithms a
production CAF 2.0 runtime would select for bulk data (§II-C.3's
collective "vision"), as two rows of the engine's per-pair shape:

- :func:`ring_allreduce` — ring reduce-scatter followed by ring
  allgather (Rabenseifner's decomposition): 2(p-1) messages of n/p
  elements each, total traffic 2n(p-1)/p per image regardless of p;
- :func:`pipelined_broadcast` — the root streams the payload in
  segments down a chain; with enough segments every link stays busy and
  the completion time approaches n/B + (p-2+s) hops instead of
  ceil(log2 p) x n/B.

Both are blocking (use ``yield from``) and are numbered with the same
per-team sequence as every other collective, so they interleave safely
with them under SPMD discipline.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.runtime.team import Team
from repro.core.collectives import member, op_function, start


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
    (also returned).

    2(p-1) steps: at step s I send my chunk (me-s) to the right and fold
    in chunk (me-s-1) from the left — reducing it during the first p-1
    steps (reduce-scatter), taking it as it is after (allgather)."""
    fn = op_function(op)
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError("ring_allreduce expects a 1-D array")
    team, me = member(ctx, team)
    p = team.size

    def chunk(step: int) -> np.ndarray:
        lo, hi = _chunk_bounds(len(array), p, (me - step) % p)
        return array[lo:hi]

    def fold(_array, step: int, _src: int, incoming: np.ndarray) -> None:
        mine = chunk(step + 1)
        mine[...] = fn(mine, incoming) if step < p - 1 else incoming

    def plan(step: int):
        return [((me + 1) % p, step, chunk(step).copy())], 1

    return (yield start(ctx, "ring_allreduce", team, array,
                        rounds=(2 * (p - 1), plan, fold)).result)


def pipelined_broadcast(ctx, array: np.ndarray, root: int = 0,
                        team: Optional[Team] = None,
                        segments: int = 8
                        ) -> Generator[Any, Any, np.ndarray]:
    """Chain-pipelined broadcast of a numpy array in ``segments``
    pieces; the root's content ends up in every member's ``array``.

    The root sends segment s at its step s, all at the call; every
    other member receives segment s at step s and forwards it to the
    next member along the chain at step s+1."""
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError("pipelined_broadcast expects a 1-D array")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    segments = min(segments, max(1, len(array)))
    team, me = member(ctx, team)
    p = team.size
    lag = int(me != root)            # a forward trails its arrival a step
    last = (me - root) % p == p - 1  # the end of the chain

    def segment(idx: int) -> np.ndarray:
        lo, hi = _chunk_bounds(len(array), segments, idx)
        return array[lo:hi]

    def plan(step: int):
        idx = step - lag
        forward = [] if last or idx < 0 else [
            ((me + 1) % p, idx, segment(idx).copy())]
        return forward, lag * (step < segments)

    def fold(_array, step: int, _src: int, incoming: np.ndarray) -> None:
        segment(step)[...] = incoming

    steps = segments + (0 if last else lag)
    return (yield start(ctx, "pipelined_broadcast", team, array, root=root,
                        rounds=(steps, plan, fold)).result)
