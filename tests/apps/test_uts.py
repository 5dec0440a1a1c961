"""Tests for the UTS application."""

import numpy as np
import pytest

from repro.runtime.program import Machine
from repro.apps.uts import (
    DESCRIPTOR_BYTES,
    ITEM_BYTES,
    TreeParams,
    UTSConfig,
    child_descriptor,
    chunk_limit,
    expand,
    num_children,
    pack_items,
    root_descriptor,
    run_uts,
    sequential_tree_size,
    unpack_items,
)


class TestTreeGeneration:
    def test_root_descriptor_is_sha1_of_seed(self):
        import hashlib
        import struct
        p = TreeParams(seed=19)
        assert root_descriptor(p) == hashlib.sha1(
            struct.pack(">i", 19)).digest()
        assert len(root_descriptor(p)) == DESCRIPTOR_BYTES

    def test_children_deterministic(self):
        p = TreeParams()
        root = root_descriptor(p)
        assert expand(root, 0, p) == expand(root, 0, p)

    def test_child_descriptors_distinct(self):
        p = TreeParams()
        root = root_descriptor(p)
        kids = [child_descriptor(root, i) for i in range(10)]
        assert len(set(kids)) == 10

    def test_depth_bound_terminates_tree(self):
        p = TreeParams(max_depth=3)
        assert num_children(root_descriptor(p), 3, p) == 0
        assert num_children(root_descriptor(p), 99, p) == 0

    def test_mean_branching_near_b0(self):
        p = TreeParams(b0=4.0, max_depth=10**9)
        rng = np.random.default_rng(0)
        descs = [bytes(rng.bytes(20)) for _ in range(4000)]
        counts = [num_children(d, 0, p) for d in descs]
        assert 3.5 < np.mean(counts) < 4.5

    def test_sequential_size_reference_values(self):
        # Pin the exact tree sizes so any change to the generation rule
        # is caught (these are this implementation's ground truth).
        assert sequential_tree_size(TreeParams(b0=4, max_depth=4, seed=19)) == 296
        assert sequential_tree_size(TreeParams(b0=4, max_depth=6, seed=19)) == 4845

    def test_expand_matches_the_reference_formulas(self):
        """Every node of the depth-6 tree expands as the written-out
        formulas say: the first descriptor word as the draw, the log
        denominator recomputed per node, SHA-1 of parent ∥ index."""
        import hashlib
        import math
        import struct

        def reference_expand(desc, depth, p):
            if depth >= p.max_depth:
                return []
            u = struct.unpack(">I", desc[:4])[0] / 2.0 ** 32
            n = int(math.floor(math.log(1.0 - u)
                               / math.log(1.0 - 1.0 / (1.0 + p.b0))))
            return [(hashlib.sha1(desc + struct.pack(">i", i)).digest(),
                     depth + 1) for i in range(n)]

        p = TreeParams(b0=4, max_depth=6, seed=19)
        seen = 0
        stack = [(root_descriptor(p), 0)]
        while stack:
            desc, depth = stack.pop()
            kids = reference_expand(desc, depth, p)
            assert num_children(desc, depth, p) == len(kids)
            assert expand(desc, depth, p) == kids
            seen += 1
            stack.extend(kids)
        assert seen == 4845

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TreeParams(b0=0)
        with pytest.raises(ValueError):
            TreeParams(max_depth=-1)

    def test_paper_configuration(self):
        p = TreeParams.paper()
        assert (p.b0, p.max_depth, p.seed) == (4.0, 18, 19)


class TestPacking:
    def test_roundtrip(self):
        items = [(bytes(range(20)), 3), (bytes(20), 0)]
        assert unpack_items(pack_items(items)) == items

    def test_item_size(self):
        assert ITEM_BYTES == 24
        assert len(pack_items([(bytes(20), 1)])) == ITEM_BYTES

    def test_corrupt_payload_rejected(self):
        with pytest.raises(ValueError, match="corrupt"):
            unpack_items(b"x" * 25)

    @pytest.mark.parametrize("width", [19, 21, 0])
    def test_wrong_width_descriptor_rejected(self, width):
        # A 19- and a 21-byte descriptor used to pack into 48 bytes that
        # unpacked as two other items (depths 256 and 2).
        items = [(bytes(20), 1), (bytes(width), 2)]
        with pytest.raises(ValueError, match=f"item 1: descriptor of "
                                             f"{width} bytes"):
            pack_items(items)

    def test_chunk_limit_is_nine_items_by_default(self):
        # Paper §IV-C.1a: GASNet's medium packet caps a steal at 9 items.
        assert chunk_limit(Machine(2)) == 9


class TestDistributedRun:
    @pytest.mark.parametrize("n_images", [1, 2, 4, 8])
    def test_counts_match_sequential(self, n_images):
        tree = TreeParams(b0=4, max_depth=5, seed=19)
        expected = sequential_tree_size(tree)
        result = run_uts(n_images, UTSConfig(tree=tree))
        assert result.total_nodes == expected

    def test_different_seeds_different_trees(self):
        a = run_uts(2, UTSConfig(tree=TreeParams(max_depth=5, seed=19)))
        b = run_uts(2, UTSConfig(tree=TreeParams(max_depth=5, seed=20)))
        assert a.total_nodes != b.total_nodes

    def test_count_exact_under_hoisted_handler_sends(self):
        # Regression: machine seed 726 used to produce an inconsistent
        # allreduce cut — a shipped function whose receive was folded
        # into the even epoch kept running and its steal/lifeline sends
        # were hidden in the odd epoch, so the finish concluded with
        # counted work outstanding and the kernel returned a stale node
        # count (1112 of 1200).  Causal send tagging in
        # FinishFrame.on_send keeps such sends inside the cut.
        tree = TreeParams(max_depth=5, seed=19)
        expected = sequential_tree_size(tree)
        result = run_uts(4, UTSConfig(tree=tree), seed=726)
        assert result.total_nodes == expected

    def test_run_is_deterministic(self):
        cfg = UTSConfig(tree=TreeParams(max_depth=5))
        a = run_uts(4, cfg, seed=7)
        b = run_uts(4, cfg, seed=7)
        assert a.nodes_per_image == b.nodes_per_image
        assert a.sim_time == b.sim_time

    def test_stealing_happens(self):
        result = run_uts(8, UTSConfig(tree=TreeParams(max_depth=6)))
        assert result.steals_attempted > 0
        assert result.lifeline_pushes > 0

    def test_load_balance_reasonable(self):
        result = run_uts(8, UTSConfig(tree=TreeParams(max_depth=7)))
        frac = np.array(result.nodes_per_image) / (result.total_nodes / 8)
        assert frac.min() > 0.5
        assert frac.max() < 2.0

    def test_parallel_efficiency_band(self):
        tree = TreeParams(max_depth=7)
        cfg = UTSConfig(tree=tree, node_cost=2e-6)
        total = sequential_tree_size(tree)
        result = run_uts(8, cfg)
        efficiency = (total * cfg.node_cost / 8) / result.sim_time
        assert 0.5 < efficiency <= 1.0

    def test_finish_rounds_recorded(self):
        result = run_uts(4, UTSConfig(tree=TreeParams(max_depth=5)))
        assert result.finish_rounds >= 1
