"""Coarrays: shared distributed data objects allocated over a team.

A coarray has one local section per member image, all of the same shape
and dtype (CAF semantics).  Remote sections are addressed through
:class:`CoarrayRef` handles:

    A = machine.coarray("A", shape=64, dtype=np.float64, team=world)
    A.local(ctx)[...]          # my section (free, it's my memory)
    A.on(p)                    # image p's section (a reference, no data moves)
    A.on(p)[2:5]               # a slice of image p's section

``CoarrayRef`` objects are what ``copy_async``, shipped-function arguments
(by reference!), and the blocking ``ctx.get``/``ctx.put`` convenience
operations consume.  ``copy_async`` is the one path that moves data
between sections on different images.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.runtime.team import Team


class Coarray:
    """A distributed array: one same-shape numpy section per team member.

    Storage exists only on member images.  A coarray over a contiguous
    team (the world, block splits) keeps the team's range as its
    membership — O(1) memory and containment, never a p-wide set.
    """

    def __init__(self, name: str, team: Team, n_images: int, shape: Any,
                 dtype: Any = np.float64, fill: Any = 0):
        self.name = name
        self.team = team
        self.shape = shape
        self.dtype = np.dtype(dtype)
        members = team.members
        if min(members) < 0 or max(members) >= n_images:
            raise ValueError(
                f"coarray {name!r}: team members out of image range")
        if not isinstance(members, range):
            members = set(members)
        self.members = members
        self._sections: list[Optional[np.ndarray]] = [
            np.full(shape, fill, dtype=dtype) if i in members else None
            for i in range(n_images)
        ]

    # -- local access ---------------------------------------------------- #

    def local_at(self, world_rank: int) -> np.ndarray:
        """The section owned by ``world_rank`` (must be a team member)."""
        section = self._sections[world_rank]
        if section is None:
            raise ValueError(
                f"coarray {self.name!r} is not allocated on image "
                f"{world_rank}"
            )
        return section

    def nbytes_of(self, index: Any) -> int:
        """Simulated size of the elements ``index`` selects, in bytes."""
        sample = next(s for s in self._sections if s is not None)
        return int(np.asarray(sample[index]).nbytes)

    # -- remote references ------------------------------------------------ #

    def on(self, team_rank: int) -> "ImageSection":
        """The section on team rank ``team_rank`` (no data moves)."""
        return ImageSection(self, self.team.world_rank(team_rank))

    def ref(self, team_rank: int, index: Any = slice(None)) -> "CoarrayRef":
        """Shorthand for ``self.on(team_rank)[index]``."""
        return CoarrayRef(self, self.team.world_rank(team_rank), index)

    def __repr__(self) -> str:
        return (f"<Coarray {self.name!r} team={self.team.id} "
                f"shape={self.shape} dtype={self.dtype}>")


class ImageSection:
    """``A.on(p)`` — a whole remote section, indexable into a ref."""

    __slots__ = ("coarray", "world_rank")

    def __init__(self, coarray: Coarray, world_rank: int):
        self.coarray = coarray
        self.world_rank = world_rank

    def __getitem__(self, index: Any) -> "CoarrayRef":
        return CoarrayRef(self.coarray, self.world_rank, index)

    @property
    def whole(self) -> "CoarrayRef":
        return CoarrayRef(self.coarray, self.world_rank, slice(None))


class CoarrayRef:
    """A (coarray, image, index) triple — the unit of one-sided access."""

    __slots__ = ("coarray", "world_rank", "index")

    def __init__(self, coarray: Coarray, world_rank: int, index: Any):
        if world_rank not in coarray.members:
            raise ValueError(
                f"image {world_rank} holds no section of coarray "
                f"{coarray.name!r}"
            )
        self.coarray = coarray
        self.world_rank = world_rank
        self.index = index

    @property
    def nbytes(self) -> int:
        """Simulated size of the referenced elements."""
        return self.coarray.nbytes_of(self.index)

    def read(self) -> np.ndarray:
        """Read the referenced elements directly (simulation-internal;
        user code should move data with copy_async/get)."""
        return np.copy(self.coarray.local_at(self.world_rank)[self.index])

    def write(self, data: Any) -> None:
        """Write the referenced elements directly (simulation-internal)."""
        local = self.coarray.local_at(self.world_rank)
        data = np.asarray(data)
        if np.ndim(local[self.index]) == 0 and data.size == 1:
            data = data.reshape(())  # size-1 payload into a scalar slot
        local[self.index] = data

    def is_local_to(self, world_rank: int) -> bool:
        return self.world_rank == world_rank

    def __repr__(self) -> str:
        return (f"<CoarrayRef {self.coarray.name}[{self.index}]"
                f"@img{self.world_rank}>")
