"""Unit tests for coarrays and coarray references."""

import numpy as np
import pytest

from repro.runtime.program import Machine
from repro.runtime.team import Team


@pytest.fixture
def machine():
    return Machine(4)


class TestAllocation:
    def test_world_coarray_sections(self, machine):
        A = machine.coarray("A", shape=16, dtype=np.int64)
        for r in range(4):
            assert A.local_at(r).shape == (16,)
            assert A.local_at(r).dtype == np.int64
        A.local_at(0)[:] = 7
        assert A.local_at(1).sum() == 0

    def test_fill_value(self, machine):
        A = machine.coarray("A", shape=4, fill=3.5)
        assert A.local_at(2).tolist() == [3.5] * 4

    def test_multidimensional(self, machine):
        A = machine.coarray("A", shape=(3, 5))
        assert A.local_at(0).shape == (3, 5)

    def test_duplicate_name_rejected(self, machine):
        machine.coarray("A", shape=4)
        with pytest.raises(ValueError):
            machine.coarray("A", shape=4)

    def test_lookup(self, machine):
        A = machine.coarray("A", shape=4)
        assert machine.coarray_by_name("A") is A
        with pytest.raises(KeyError):
            machine.coarray_by_name("B")

    def test_subteam_coarray(self, machine):
        sub = machine.intern_team([1, 3])
        A = machine.coarray("A", shape=4, team=sub)
        assert A.local_at(1) is not None
        with pytest.raises(ValueError):
            A.local_at(0)  # not a member

    def test_world_membership_stays_a_range(self, machine):
        """Containment on a world coarray is O(1) in memory: the team's
        range, not a p-wide set."""
        A = machine.coarray("A", shape=4)
        assert A.members == range(4)
        assert isinstance(A.members, range)

    def test_team_outside_the_machine_rejected(self, machine):
        with pytest.raises(ValueError, match="out of image range"):
            machine.coarray("A", shape=4, team=machine.intern_team([1, 9]))


class TestRefs:
    def test_on_and_index(self, machine):
        A = machine.coarray("A", shape=8)
        ref = A.on(2)[1:4]
        assert ref.world_rank == 2
        assert ref.index == slice(1, 4)
        assert ref.nbytes == 24

    def test_ref_shorthand(self, machine):
        A = machine.coarray("A", shape=8)
        ref = A.ref(1, 5)
        assert ref.world_rank == 1
        assert ref.index == 5
        assert ref.nbytes == 8

    def test_whole_section(self, machine):
        A = machine.coarray("A", shape=8)
        assert A.on(0).whole.nbytes == 64

    def test_team_rank_translation(self, machine):
        sub = machine.intern_team([2, 3])
        A = machine.coarray("A", shape=4, team=sub)
        # team rank 0 of the sub-team is world rank 2
        assert A.ref(0).world_rank == 2
        assert A.ref(1).world_rank == 3

    def test_read_write(self, machine):
        A = machine.coarray("A", shape=4)
        ref = A.ref(1, slice(0, 2))
        ref.write([9, 8])
        assert A.local_at(1)[:2].tolist() == [9, 8]
        data = ref.read()
        A.local_at(1)[0] = 0
        assert data.tolist() == [9, 8]  # read() returned a copy

    def test_ref_to_nonmember_rejected(self, machine):
        sub = machine.intern_team([0, 1])
        A = machine.coarray("A", shape=4, team=sub)
        from repro.runtime.coarray import CoarrayRef
        with pytest.raises(ValueError):
            CoarrayRef(A, 3, 0)

    def test_is_local_to(self, machine):
        A = machine.coarray("A", shape=4)
        assert A.ref(2).is_local_to(2)
        assert not A.ref(2).is_local_to(0)
