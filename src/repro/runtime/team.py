"""Teams: first-class process subsets (paper §II-A).

A team serves three purposes in CAF 2.0: it is the allocation domain for
coarrays, a namespace of relative ranks, and an isolated domain for
collective communication.  All images start in ``team_world``; new teams
are created collectively with ``team_split`` (implemented in
:mod:`repro.core.collectives` since it is itself a collective operation).

This module holds the pure membership structure plus the one k-ary heap
layout every tree in the runtime uses (the collectives, the failure
service, the fault-tolerant finish).  A team is immutable, so the tree
shape the collective engine asks for on every call is memoized on the
team (:meth:`Team.tree_shape`, in world ranks).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

#: bound on :meth:`Team.tree_shape`'s memo, in shapes per member
_SHAPES_PER_MEMBER = 16
#: fan-out of the fault-tolerance trees: the failure service's
#: monitoring tree and the fault-tolerant finish's report tree
FT_TREE_RADIX = 4


def heap_parent(pos: int, radix: int) -> int | None:
    """Parent position of ``pos`` in the heap layout (None for the root)."""
    return None if pos == 0 else (pos - 1) // radix


def heap_children(pos: int, size: int, radix: int) -> range:
    """Child positions of ``pos`` in a heap layout of ``size`` nodes."""
    first = radix * pos + 1
    return range(first, min(first + radix, size))


def heap_descendants(pos: int, size: int, radix: int) -> int:
    """Number of positions below ``pos``: each level of its subtree is
    one contiguous run of positions, ``[lo, hi]`` -> ``[radix*lo + 1,
    radix*hi + radix]``."""
    total = -1  # exclude pos itself
    lo = hi = pos
    while lo < size:
        total += min(hi, size - 1) - lo + 1
        lo, hi = radix * lo + 1, radix * hi + radix
    return total


class Team:
    """An ordered set of world ranks.

    ``members[i]`` is the world rank of team rank ``i``.  Team ids are
    globally unique and identical on every member (they are assigned
    deterministically by the collective that creates the team), which is
    what lets finish frames and collective rendezvous match across images.
    """

    _ids = itertools.count()

    __slots__ = ("id", "members", "parent", "_rank_of", "_shapes")

    def __init__(self, members: Sequence[int], team_id: int | None = None,
                 parent: "Team | None" = None):
        if isinstance(members, range) and members.step == 1:
            # Contiguous membership (team_world, block splits): keep the
            # range itself — rank_of is arithmetic, so an 8192-image
            # world team costs O(1) memory instead of a list plus an
            # inverse dict (DESIGN.md §13).
            if len(members) == 0:
                raise ValueError("a team must have at least one member")
            self.members: Sequence[int] = members
            self._rank_of = None
        else:
            members = list(members)
            if not members:
                raise ValueError("a team must have at least one member")
            if len(set(members)) != len(members):
                raise ValueError(f"duplicate members in team: {members}")
            self.members = members
            self._rank_of = {w: i for i, w in enumerate(members)}
        self.id = next(Team._ids) if team_id is None else team_id
        self.parent = parent
        #: (team rank, root, radix) -> (parent, children) in world ranks
        self._shapes: dict[tuple, tuple] = {}

    # -- membership ----------------------------------------------------- #

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, world_rank: int) -> bool:
        if self._rank_of is None:
            return world_rank in self.members  # range: O(1) arithmetic
        return world_rank in self._rank_of

    def rank_of(self, world_rank: int) -> int:
        """Team rank of a world rank."""
        if self._rank_of is None:
            members = self.members
            if world_rank in members:
                return world_rank - members.start
        else:
            try:
                return self._rank_of[world_rank]
            except KeyError:
                pass
        raise ValueError(
            f"image {world_rank} is not in team {self.id}"
        )

    def world_rank(self, team_rank: int) -> int:
        """World rank of a team rank."""
        if not 0 <= team_rank < len(self.members):
            raise ValueError(
                f"team rank {team_rank} out of range for team of size "
                f"{len(self.members)}"
            )
        return self.members[team_rank]

    def is_subset_of(self, other: "Team") -> bool:
        """True when every member of self is a member of ``other``
        (the containment rule for collectives under finish, §III-A.1)."""
        return all(w in other for w in self.members)

    # -- tree shape for collectives ------------------------------------- #

    def tree_parent(self, team_rank: int, root: int = 0, radix: int = 2) -> int | None:
        """Parent of ``team_rank`` in a ``radix``-ary tree rooted at
        ``root`` (ranks rotated so the root maps to position 0).
        Returns None for the root."""
        size = self.size
        parent = heap_parent((team_rank - root) % size, radix)
        return None if parent is None else (parent + root) % size

    def tree_children(self, team_rank: int, root: int = 0, radix: int = 2) -> list[int]:
        """Children of ``team_rank`` in the same tree."""
        size = self.size
        return [(c + root) % size
                for c in heap_children((team_rank - root) % size, size, radix)]

    def tree_shape(self, team_rank: int, root: int,
                   radix: int) -> tuple[int | None, tuple[int, ...]]:
        """``(parent, children)`` of ``team_rank`` in the tree above, as
        world ranks (parent None for the root), memoized: every
        collective record asks for its image's shape.  ``root`` and
        ``radix`` must be valid for this team (the engine checks them
        before it asks).  The memo holds at most ``_SHAPES_PER_MEMBER``
        shapes per member and starts over when full, so rotating the
        root across a large team costs what computing each shape does."""
        key = (team_rank, root, radix)
        shape = self._shapes.get(key)
        if shape is None:
            members = self.members
            shapes = self._shapes
            if len(shapes) >= _SHAPES_PER_MEMBER * len(members):
                shapes.clear()
            parent = self.tree_parent(team_rank, root, radix)
            shape = shapes[key] = (
                None if parent is None else members[parent],
                tuple([members[c] for c in
                       self.tree_children(team_rank, root, radix)]))
        return shape

    def hypercube_neighbors(self, team_rank: int) -> list[int]:
        """Team ranks at XOR offsets 2^0, 2^1, ... (UTS lifelines,
        paper §IV-C: lifelines are set on hypercube neighbors)."""
        out = []
        bit = 1
        while bit < self.size:
            neighbor = team_rank ^ bit
            if neighbor < self.size:
                out.append(neighbor)
            bit <<= 1
        return out

    def __repr__(self) -> str:
        return f"<Team {self.id} size={self.size}>"
