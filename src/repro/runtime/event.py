"""Event variables (paper §II-B).

Events are counting synchronization objects.  Declared over a team they
behave like a coarray of counters — any image may notify the event *on*
any member image; ``event_wait`` blocks the caller until its local count
is positive, then consumes one post.

The acquire/release ordering semantics (§III-B.4) — an ``event_notify``
must not let earlier implicitly-completed operations move below it, an
``event_wait`` lets earlier operations complete after it — are enforced by
the :class:`~repro.runtime.image.Image` facade, which owns the pending-op
lists; this module is only the counter substrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.tasks import Condition
from repro.runtime.team import Team

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.program import Machine


class EventRef:
    """``ev.at(p)`` — the event's counter on a specific image."""

    __slots__ = ("event", "world_rank")

    def __init__(self, event: "EventVar", world_rank: int):
        if world_rank not in event.team:
            raise ValueError(
                f"event {event.name!r} has no counter on image {world_rank}"
            )
        self.event = event
        self.world_rank = world_rank

    def __repr__(self) -> str:
        return f"<EventRef {self.event.name}@img{self.world_rank}>"


def event_ref(ev, world_rank: int) -> "EventRef | None":
    """Normalise an optional event argument of an asynchronous operation
    issued on ``world_rank``: an :class:`EventRef` names its counter, an
    :class:`EventVar` means the issuer's own."""
    if ev is None or isinstance(ev, EventRef):
        return ev
    if isinstance(ev, EventVar):
        return ev.ref_for(world_rank)
    raise TypeError(f"expected EventVar or EventRef, got {type(ev).__name__}")


class EventVar:
    """A counting event with one counter per team member.

    Created via :meth:`repro.runtime.program.Machine.make_event`, which
    registers it for remote posting.  Posting and waiting are mediated by
    the Image facade so that ordering semantics and network charges are
    applied; the methods here mutate counters instantaneously.
    """

    __slots__ = ("machine", "team", "name", "_counts", "_conds")

    def __init__(self, machine: "Machine", team: Team, name: str | None = None):
        self.machine = machine
        self.team = team
        self.name = name or f"_event{machine.next_token()}"
        # Sparse: counters and wait conditions materialize per member on
        # first touch, so an event over 8192 images costs only what the
        # program actually posts/waits on (DESIGN.md §13).
        self._counts: dict[int, int] = {}
        self._conds: dict[int, Condition] = {}

    def _cond(self, world_rank: int) -> Condition:
        cond = self._conds.get(world_rank)
        if cond is None:
            cond = self._conds[world_rank] = Condition(
                self.machine.sim, f"{self.name}@{world_rank}")
        return cond

    # -- addressing ------------------------------------------------------ #

    def at(self, team_rank: int) -> EventRef:
        """The event counter on team rank ``team_rank``."""
        return EventRef(self, self.team.world_rank(team_rank))

    def ref_for(self, world_rank: int) -> EventRef:
        """The event counter on a world rank (internal helper)."""
        return EventRef(self, world_rank)

    # -- counter mechanics (simulation-internal) -------------------------- #

    def count_at(self, world_rank: int) -> int:
        return self._counts.get(world_rank, 0)

    def post(self, world_rank: int, count: int = 1) -> None:
        """Increment the counter on ``world_rank`` and wake waiters.

        Callers are responsible for any network charge incurred getting
        the post to ``world_rank`` (e.g. the delivery of a remote notify
        AM, or an async copy's destination-side completion).
        """
        if count <= 0:
            raise ValueError(f"post count must be positive, got {count}")
        self._counts[world_rank] = self._counts.get(world_rank, 0) + count
        self._cond(world_rank).wake()

    def consume_when_ready(self, world_rank: int, count: int = 1):
        """Generator: block until the counter on ``world_rank`` reaches
        ``count``, then consume that many posts."""
        if count <= 0:
            raise ValueError(f"wait count must be positive, got {count}")
        counts = self._counts
        if counts.get(world_rank, 0) < count:
            # not posted yet: park until a post makes it so
            yield from self._cond(world_rank).wait_until(
                lambda: counts.get(world_rank, 0) >= count)
        counts[world_rank] -= count

    def __repr__(self) -> str:
        return f"<EventVar {self.name!r} team={self.team.id}>"
