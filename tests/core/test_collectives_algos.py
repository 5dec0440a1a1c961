"""Tests for the bandwidth-optimal collective algorithms."""

import numpy as np
import pytest

from repro import run_spmd
from repro.core.collectives_algos import _chunk_bounds


class TestChunkBounds:
    def test_even_split(self):
        assert [_chunk_bounds(8, 4, i) for i in range(4)] == [
            (0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        bounds = [_chunk_bounds(10, 3, i) for i in range(3)]
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        # chunks tile the array exactly
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c

    def test_more_chunks_than_elements(self):
        bounds = [_chunk_bounds(2, 4, i) for i in range(4)]
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == 2


class TestRingAllreduce:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_numpy_sum(self, spmd, n):
        size = 24

        def kernel(img):
            arr = np.arange(size, dtype=np.float64) * (img.rank + 1)
            result = yield from img.ring_allreduce(arr)
            return result.tolist()

        _m, results = spmd(kernel, n=n)
        factor = sum(r + 1 for r in range(n))
        expected = (np.arange(size) * factor).tolist()
        assert results == [expected] * n

    def test_max_operator(self, spmd):
        def kernel(img):
            arr = np.full(6, float(img.rank))
            result = yield from img.ring_allreduce(arr, op="max")
            return result.tolist()

        _m, results = spmd(kernel, n=4)
        assert results == [[3.0] * 6] * 4

    def test_in_place_semantics(self, spmd):
        def kernel(img):
            arr = np.ones(4)
            out = yield from img.ring_allreduce(arr)
            return out is arr and arr.tolist() == [4.0] * 4

        _m, results = spmd(kernel, n=4)
        assert all(results)

    def test_rejects_2d(self, spmd):
        def kernel(img):
            yield from img.ring_allreduce(np.ones((2, 2)))

        with pytest.raises(ValueError, match="1-D"):
            spmd(kernel, n=2)

    def test_bandwidth_advantage_for_large_arrays(self, spmd, fast_params):
        """Rabenseifner's point: for payloads >> latency product, the
        ring moves 2n(p-1)/p bytes per image vs the tree's n*log(p)."""
        size = 50_000

        def tree_kernel(img):
            arr = np.ones(size)
            _ = yield from img.allreduce(arr)
            return img.now

        def ring_kernel(img):
            arr = np.ones(size)
            yield from img.ring_allreduce(arr)
            return img.now

        _m, tree_t = spmd(tree_kernel, n=8, params=fast_params(8))
        _m, ring_t = spmd(ring_kernel, n=8, params=fast_params(8))
        assert max(ring_t) < max(tree_t)

    def test_latency_advantage_of_tree_for_scalars(self, spmd, fast_params):
        """...and the converse: tiny payloads favor the log-depth tree
        over the ring's 2(p-1) serial hops."""
        def tree_kernel(img):
            _ = yield from img.allreduce(1.0)
            return img.now

        def ring_kernel(img):
            arr = np.ones(1)
            yield from img.ring_allreduce(arr)
            return img.now

        _m, tree_t = spmd(tree_kernel, n=16, params=fast_params(16))
        _m, ring_t = spmd(ring_kernel, n=16, params=fast_params(16))
        assert max(tree_t) < max(ring_t)


class TestPipelinedBroadcast:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    @pytest.mark.parametrize("root", [0, 2])
    def test_delivers_root_data(self, spmd, n, root):
        if root >= n:
            pytest.skip("root outside team")
        size = 32

        def kernel(img):
            arr = np.zeros(size)
            if img.team_rank() == root:
                arr[:] = np.arange(size)
            yield from img.pipelined_broadcast(arr, root=root)
            return arr.tolist()

        _m, results = spmd(kernel, n=n)
        assert results == [list(map(float, range(size)))] * n

    def test_segment_count_capped_by_array(self, spmd):
        def kernel(img):
            arr = np.full(2, float(img.rank == 0))
            yield from img.pipelined_broadcast(arr, segments=64)
            return arr.tolist()

        _m, results = spmd(kernel, n=3)
        assert results == [[1.0, 1.0]] * 3

    def test_pipelining_beats_tree_for_bulk(self, spmd, fast_params):
        size = 100_000

        def tree_kernel(img):
            arr = np.zeros(size)
            if img.rank == 0:
                arr[:] = 1.0
            op = img.broadcast_async(arr, root=0)
            yield op.local_op
            yield from img.barrier()
            return img.now

        def pipe_kernel(img):
            arr = np.zeros(size)
            if img.rank == 0:
                arr[:] = 1.0
            yield from img.pipelined_broadcast(arr, segments=16)
            yield from img.barrier()
            return img.now

        _m, tree_t = spmd(tree_kernel, n=8, params=fast_params(8))
        _m, pipe_t = spmd(pipe_kernel, n=8, params=fast_params(8))
        assert max(pipe_t) < max(tree_t)

    def test_invalid_segments(self, spmd):
        def kernel(img):
            yield from img.pipelined_broadcast(np.ones(4), segments=0)

        with pytest.raises(ValueError, match="segments"):
            spmd(kernel, n=2)
