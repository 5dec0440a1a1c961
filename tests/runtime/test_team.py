"""Unit tests for Team membership and tree helpers."""

import pytest

from repro.runtime.team import Team


class TestMembership:
    def test_basic_ranks(self):
        t = Team([10, 20, 30])
        assert t.size == 3
        assert len(t) == 3
        assert list(t) == [10, 20, 30]
        assert t.rank_of(20) == 1
        assert t.world_rank(2) == 30
        assert 20 in t and 99 not in t

    def test_rank_errors(self):
        t = Team([0, 1])
        with pytest.raises(ValueError):
            t.rank_of(5)
        with pytest.raises(ValueError):
            t.world_rank(2)
        with pytest.raises(ValueError):
            t.world_rank(-1)

    def test_empty_and_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Team([])
        with pytest.raises(ValueError):
            Team([1, 1])

    def test_unique_ids(self):
        a, b = Team([0]), Team([0])
        assert a.id != b.id

    def test_subset(self):
        world = Team(range(8))
        sub = Team([1, 3, 5])
        assert sub.is_subset_of(world)
        assert not world.is_subset_of(sub)
        assert sub.is_subset_of(sub)


class TestTreeShape:
    def test_root_has_no_parent(self):
        t = Team(range(7))
        assert t.tree_parent(0) is None
        assert t.tree_parent(3, root=3) is None

    def test_binary_tree_children(self):
        t = Team(range(7))
        assert t.tree_children(0) == [1, 2]
        assert t.tree_children(1) == [3, 4]
        assert t.tree_children(2) == [5, 6]
        assert t.tree_children(3) == []

    def test_parent_child_consistency(self):
        t = Team(range(13))
        for root in (0, 5):
            for radix in (2, 4):
                for r in range(t.size):
                    for c in t.tree_children(r, root, radix):
                        assert t.tree_parent(c, root, radix) == r

    def test_every_nonroot_has_parent_path_to_root(self):
        t = Team(range(10))
        root = 4
        for r in range(t.size):
            cur, hops = r, 0
            while cur != root:
                cur = t.tree_parent(cur, root)
                hops += 1
                assert hops <= t.size
        # depth is logarithmic for radix 2
        assert hops <= 5

    def test_rotated_root_tree_covers_all(self):
        t = Team(range(6))
        seen = {3}
        frontier = [3]
        while frontier:
            r = frontier.pop()
            for c in t.tree_children(r, root=3):
                assert c not in seen
                seen.add(c)
                frontier.append(c)
        assert seen == set(range(6))


    @pytest.mark.parametrize("kind", ["range", "list"])
    @pytest.mark.parametrize("size", range(1, 18))
    def test_memoized_shape_in_world_ranks(self, kind, size):
        """``tree_shape`` is ``tree_parent``/``tree_children`` mapped to
        world ranks, asked twice (the second answer from the memo), on a
        contiguous team and on a split team's member list; the memo stays
        within its bound although every root is asked for."""
        members = (range(5, 5 + size) if kind == "range"
                   else [100 - 3 * i for i in range(size)])
        t = Team(members)
        for _ in range(2):
            for root in range(size):
                for radix in range(1, 5):
                    for r in range(size):
                        parent = t.tree_parent(r, root, radix)
                        assert t.tree_shape(r, root, radix) == (
                            None if parent is None else members[parent],
                            tuple(members[c] for c in
                                  t.tree_children(r, root, radix)))
        assert 0 < len(t._shapes) <= 16 * size


class TestHypercube:
    def test_neighbors_power_of_two(self):
        t = Team(range(8))
        assert t.hypercube_neighbors(0) == [1, 2, 4]
        assert t.hypercube_neighbors(5) == [4, 7, 1]

    def test_neighbors_non_power_of_two(self):
        t = Team(range(6))
        # offsets 1, 2, 4; neighbors >= size are dropped
        assert t.hypercube_neighbors(0) == [1, 2, 4]
        # 5^1=4 kept, 5^2=7 dropped (>= 6), 5^4=1 kept
        assert t.hypercube_neighbors(5) == [4, 1]

    def test_neighbor_relation_is_symmetric(self):
        t = Team(range(12))
        for r in range(12):
            for n in t.hypercube_neighbors(r):
                assert r in t.hypercube_neighbors(n)
