"""Distributed locks.

The PGAS work-stealing algorithm the paper contrasts against (Fig. 2,
Dinan et al.) locks a victim's queue remotely; RandomAccess's reference
get-update-put variant is racy precisely because it does *not*.  This
module provides the lock those algorithms need: one lock word per team
member, acquired and released with active-message round trips, FIFO
granting.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Generator, TYPE_CHECKING

from repro.sim.tasks import Future
from repro.net.active_messages import AMCategory
from repro.runtime.team import Team

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.program import Machine

_ACQ = "lock.acquire"
_REL = "lock.release"
_GRANT = "lock.grant"


def register_handlers(machine: "Machine") -> None:
    """Called once per machine, on the family's first use there."""
    am = machine.am

    def handle_acquire(ctx, lock_name: str, token: int) -> None:
        lock = machine.lock_by_name(lock_name)
        lock._acquire_at(ctx.dst, ctx.src, token)

    def handle_release(ctx, lock_name: str) -> None:
        lock = machine.lock_by_name(lock_name)
        lock._release_at(ctx.dst)

    def handle_grant(ctx, token: int) -> None:
        fut = machine.scratch.pop(("lock.grant", token))
        fut.set_result(None)

    am.register(_ACQ, handle_acquire)
    am.register(_REL, handle_release)
    am.register(_GRANT, handle_grant)


class LockVar:
    """One lock per team member, addressable from any image."""

    _anon = itertools.count()

    def __init__(self, machine: "Machine", team: Team, name: str | None = None):
        self.machine = machine
        self.team = team
        self.name = name or f"_lock{next(LockVar._anon)}"
        # Per-member world rank: held flags and FIFO waiters, sparse —
        # entries appear only on lock homes actually contended, so a
        # lock over 8192 images costs nothing up front (DESIGN.md §13).
        self._held: set[int] = set()
        self._queues: dict[int, deque[tuple[int, int]]] = {}

    # -- home-side mechanics ------------------------------------------------ #

    def _acquire_at(self, home: int, requester: int, token: int) -> None:
        if home not in self._held:
            self._held.add(home)
            self._grant(home, requester, token)
        else:
            self._queues.setdefault(home, deque()).append(
                (requester, token))

    def _release_at(self, home: int) -> None:
        if home not in self._held:
            raise RuntimeError(
                f"lock {self.name!r}@{home} released while not held"
            )
        if self._queues.get(home):
            requester, token = self._queues[home].popleft()
            self._grant(home, requester, token)
        else:
            self._held.discard(home)

    def _grant(self, home: int, requester: int, token: int) -> None:
        if requester == home:
            fut = self.machine.scratch.pop(("lock.grant", token))
            fut.set_result(None)
        else:
            self.machine.am.request_nb(
                home, requester, _GRANT, args=(token,),
                category=AMCategory.SHORT, kind="lock.grant",
            )

    # -- user API ------------------------------------------------------------ #

    def acquire(self, ctx, team_rank: int) -> Generator[Any, Any, None]:
        """Acquire the lock on ``team_rank`` (blocks; use ``yield from``)."""
        home = self.team.world_rank(team_rank)
        token = self.machine.next_token()
        fut = Future(f"{self.name}.grant{token}")
        self.machine.scratch[("lock.grant", token)] = fut
        if home == ctx.rank:
            self._acquire_at(home, ctx.rank, token)
        else:
            self.machine.am.request_nb(
                ctx.rank, home, _ACQ, args=(self.name, token),
                category=AMCategory.SHORT, kind="lock.acquire",
            )
        yield fut
        if self.machine.racecheck is not None:
            self.machine.racecheck.lock_acquired(ctx, self.name, home)
        self.machine.stats.incr("lock.acquired")

    def release(self, ctx, team_rank: int) -> None:
        """Release the lock on ``team_rank`` (fire-and-forget message)."""
        home = self.team.world_rank(team_rank)
        if self.machine.racecheck is not None:
            self.machine.racecheck.lock_released(ctx, self.name, home)
        if home == ctx.rank:
            self._release_at(home)
        else:
            self.machine.am.request_nb(
                ctx.rank, home, _REL, args=(self.name,),
                category=AMCategory.SHORT, kind="lock.release",
            )

    def is_held(self, team_rank: int) -> bool:
        return self.team.world_rank(team_rank) in self._held
