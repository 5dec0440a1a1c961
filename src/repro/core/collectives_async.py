"""Asynchronous team collectives (paper §II-C.3): the handle-returning
entry points of the engine in :mod:`repro.core.collectives`.

The paper's vision covers alltoall, barrier, broadcast, gather, reduce,
scatter, scan and sort, each overlappable with computation and carrying
optional event parameters::

    team_broadcast_async(A, root, myteam, srcE, localE)

``src_event`` signals *local data completion* (on a contributor: the
source may be overwritten; on a receiver: the data has arrived and may be
read).  ``local_event`` signals *local operation completion* (all
pairwise communication involving this image is done).  Fig. 4 spells the
matrix out; tests assert it.  A handle's ``local_data`` resolves to what
the blocking twin would return, ``local_op`` and ``global_done`` are one
future (see :mod:`repro.core.completion`).

When called with no events a collective uses implicit completion: it
registers with the activation for ``cofence`` and its messages are
counted against the enclosing ``finish`` (the team of the collective must
be the finish team or a subset, §III-A.1 — enforced by the engine).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.runtime.team import Team
from repro.core import collectives as sync
from repro.core.collectives import CollectiveUsageError  # noqa: F401
from repro.core.completion import AsyncOp


def broadcast_async(ctx, buf: np.ndarray, root: int = 0,
                    team: Optional[Team] = None,
                    src_event=None, local_event=None,
                    radix: int = 2) -> AsyncOp:
    """Asynchronously broadcast the root's ``buf`` contents into every
    member's ``buf``.  Returns immediately with the handle."""
    team, me = sync.member(ctx, team)
    # The root's buffer is the source: the tree carries a snapshot, so
    # the buffer may be overwritten once the snapshot is injected.
    source = me == root
    return sync.start_broadcast(
        ctx, np.copy(buf) if source else None, root, team, radix,
        (None if source else buf, src_event, local_event)).op


def reduce_async(ctx, value: Any, recvbuf: Optional[np.ndarray] = None,
                 op: Any = "sum", root: int = 0,
                 team: Optional[Team] = None,
                 src_event=None, local_event=None,
                 radix: int = 2) -> AsyncOp:
    """Asynchronously reduce each member's ``value`` to the root (written
    into the root's ``recvbuf`` if given)."""
    return sync.start_reduce(ctx, value, op, root, team, radix,
                             (recvbuf, src_event, local_event)).op


def allreduce_async(ctx, value: Any, result_buf: Optional[np.ndarray] = None,
                    op: Any = "sum", team: Optional[Team] = None,
                    src_event=None, local_event=None,
                    radix: int = 2) -> AsyncOp:
    """Asynchronous allreduce (reduce to team rank 0, fan the result back
    out, written into every member's ``result_buf`` if given)."""
    return sync.start_allreduce(ctx, value, op, team, radix,
                                (result_buf, src_event, local_event)).op


def barrier_async(ctx, team: Optional[Team] = None,
                  src_event=None, local_event=None,
                  radix: int = 2) -> AsyncOp:
    """Asynchronous barrier: an allreduce of nothing.  The handle's
    ``local_op`` (or ``local_event``) fires when every member has
    arrived, as observed by this image."""
    return sync.start_allreduce(ctx, 0, "sum", team, radix,
                                (None, src_event, local_event),
                                kind="barrier").op


def gather_async(ctx, value: Any, root: int = 0,
                 team: Optional[Team] = None,
                 src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous gather; the root's handle resolves to the list of
    member values (others to None)."""
    return sync.start_gather(ctx, value, root, team, 2,
                             (None, src_event, local_event)).op


def scatter_async(ctx, values: Optional[list], root: int = 0,
                  team: Optional[Team] = None,
                  src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous scatter; each member's handle resolves to its value."""
    return sync.start_scatter(ctx, values, root, team, 2,
                              (None, src_event, local_event)).op


def allgather_async(ctx, value: Any, team: Optional[Team] = None,
                    src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous allgather; resolves to the list of member values."""
    return sync.start_allgather(ctx, value, team, 2,
                                (None, src_event, local_event)).op


def alltoall_async(ctx, values: list, team: Optional[Team] = None,
                   src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous all-to-all; resolves to the values addressed to me."""
    return sync.start_alltoall(ctx, values, team, 2,
                               (None, src_event, local_event)).op


def scan_async(ctx, value: Any, op: Any = "sum",
               team: Optional[Team] = None, inclusive: bool = True,
               src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous prefix reduction; resolves to my prefix value."""
    return sync.start_scan(ctx, value, op, team, inclusive, 2,
                           (None, src_event, local_event)).op


def sort_async(ctx, values: np.ndarray, team: Optional[Team] = None,
               src_event=None, local_event=None) -> AsyncOp:
    """Asynchronous distributed sort; resolves to my sorted chunk."""
    return sync.start_sort(ctx, values, team, 2,
                           (None, src_event, local_event)).op
