"""Tests for the blocking team collectives."""

import numpy as np
import pytest

from repro.core.collectives import op_function


class TestOpFunction:
    def test_named_ops(self):
        assert op_function("sum")(2, 3) == 5
        assert op_function("prod")(2, 3) == 6
        assert op_function("max")(2, 3) == 3
        assert op_function("min")(2, 3) == 2

    def test_callable_passthrough(self):
        fn = lambda a, b: a - b
        assert op_function(fn) is fn

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            op_function("median")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_allreduce_sum_all_sizes(spmd, n):
    def kernel(img):
        return (yield from img.allreduce(img.rank + 1))

    _m, results = spmd(kernel, n=n)
    expected = n * (n + 1) // 2
    assert results == [expected] * n


def test_allreduce_max(spmd):
    def kernel(img):
        return (yield from img.allreduce(img.rank * 7 % 5, op="max"))

    _m, results = spmd(kernel, n=5)
    assert results == [max(r * 7 % 5 for r in range(5))] * 5


def test_successive_collectives_keep_matching(spmd):
    def kernel(img):
        a = yield from img.allreduce(1)
        b = yield from img.allreduce(img.rank, op="max")
        c = yield from img.allreduce(img.rank, op="min")
        return (a, b, c)

    _m, results = spmd(kernel, n=6)
    assert results == [(6, 5, 0)] * 6


def test_allreduce_cost_grows_logarithmically(spmd, fast_params):
    def kernel(img):
        yield from img.allreduce(1)
        return img.now

    times = {}
    for n in (2, 8, 32):
        _m, results = spmd(kernel, n=n, params=fast_params(n))
        times[n] = max(results)
    # Tree depth 1 vs 3 vs 5: latency roughly linear in log2(p).
    assert times[2] < times[8] < times[32]
    assert times[32] < 8 * times[2]


class TestBarrier:
    def test_barrier_synchronizes(self, spmd):
        def kernel(img):
            yield from img.compute(img.rank * 1e-5)
            yield from img.barrier()
            return img.now

        _m, results = spmd(kernel, n=4)
        slowest_work = 3 * 1e-5
        assert min(results) >= slowest_work

    def test_nonmember_rejected(self, spmd):
        def kernel(img):
            sub = img.machine.intern_team([0, 1])
            if img.rank < 2:
                yield from img.barrier(team=sub)
            else:
                with pytest.raises(ValueError, match="not in team"):
                    yield from img.barrier(team=sub)

        spmd(kernel, n=4)


class TestReduceBroadcast:
    def test_reduce_to_root(self, spmd):
        def kernel(img):
            return (yield from img.reduce(img.rank + 1, root=2))

        _m, results = spmd(kernel, n=4)
        assert results[2] == 10
        assert results[0] is None and results[1] is None and results[3] is None

    def test_broadcast_value(self, spmd):
        def kernel(img):
            value = f"from-root" if img.rank == 1 else None
            return (yield from img.broadcast(value, root=1))

        _m, results = spmd(kernel, n=5)
        assert results == ["from-root"] * 5

    def test_broadcast_timing_root_first(self, spmd, fast_params):
        def kernel(img):
            yield from img.broadcast("x", root=0)
            return img.now

        _m, results = spmd(kernel, n=8, params=fast_params(8))
        assert results[0] <= min(results[1:])


class TestGatherScatter:
    def test_gather(self, spmd):
        def kernel(img):
            return (yield from img.gather(img.rank ** 2, root=0))

        _m, results = spmd(kernel, n=4)
        assert results[0] == [0, 1, 4, 9]
        assert results[1] is None

    def test_allgather(self, spmd):
        def kernel(img):
            return (yield from img.allgather(chr(ord("a") + img.rank)))

        _m, results = spmd(kernel, n=3)
        assert results == [["a", "b", "c"]] * 3

    def test_scatter(self, spmd):
        def kernel(img):
            values = [10 * i for i in range(img.nimages)] if img.rank == 0 else None
            return (yield from img.scatter(values, root=0))

        _m, results = spmd(kernel, n=4)
        assert results == [0, 10, 20, 30]

    def test_scatter_wrong_count_rejected(self, spmd):
        def kernel(img):
            values = [1] if img.rank == 0 else None
            yield from img.scatter(values, root=0)

        # The root raises before broadcasting (wedging its peer); the
        # run surfaces the root cause.
        with pytest.raises(ValueError, match="(?s)one value per.*main@0"):
            spmd(kernel, n=2)

    def test_alltoall(self, spmd):
        def kernel(img):
            values = [(img.rank, j) for j in range(img.nimages)]
            return (yield from img.alltoall(values))

        _m, results = spmd(kernel, n=3)
        assert results[1] == [(0, 1), (1, 1), (2, 1)]


class TestScanSort:
    def test_inclusive_scan(self, spmd):
        def kernel(img):
            return (yield from img.scan(img.rank + 1))

        _m, results = spmd(kernel, n=4)
        assert results == [1, 3, 6, 10]

    def test_exclusive_scan(self, spmd):
        def kernel(img):
            return (yield from img.scan(img.rank + 1, inclusive=False))

        _m, results = spmd(kernel, n=4)
        assert results == [None, 1, 3, 6]

    def test_sort_redistributes(self, spmd):
        def kernel(img):
            values = np.array([img.nimages - img.rank, 100 - img.rank])
            chunk = yield from img.sort(values)
            return chunk.tolist()

        _m, results = spmd(kernel, n=3)
        merged = sorted([3, 100, 2, 99, 1, 98])
        assert results == [merged[0:2], merged[2:4], merged[4:6]]

    def test_sort_unequal_lengths_rejected(self, spmd):
        def kernel(img):
            values = np.arange(img.rank + 1)
            yield from img.sort(values)

        with pytest.raises(ValueError, match="equal-length"):
            spmd(kernel, n=2)


class TestTeamSplit:
    def test_split_by_parity(self, spmd):
        def kernel(img):
            team = yield from img.team_split(img.team_world,
                                             color=img.rank % 2,
                                             key=img.rank)
            return (team.id, team.members)

        _m, results = spmd(kernel, n=6)
        evens = results[0]
        odds = results[1]
        assert evens[1] == [0, 2, 4]
        assert odds[1] == [1, 3, 5]
        # all members of a color share the interned team (same id)
        assert results[0][0] == results[2][0] == results[4][0]
        assert results[1][0] == results[3][0] == results[5][0]

    def test_split_key_orders_ranks(self, spmd):
        def kernel(img):
            # reverse ordering via key
            team = yield from img.team_split(img.team_world, color=0,
                                             key=-img.rank)
            return team.members

        _m, results = spmd(kernel, n=4)
        assert results[0] == [3, 2, 1, 0]

    def test_collectives_on_subteam(self, spmd):
        def kernel(img):
            team = yield from img.team_split(img.team_world,
                                             color=img.rank % 2,
                                             key=img.rank)
            total = yield from img.allreduce(img.rank, team=team)
            return total

        _m, results = spmd(kernel, n=6)
        assert results == [6, 9, 6, 9, 6, 9]

    def test_nested_split(self, spmd):
        def kernel(img):
            half = yield from img.team_split(img.team_world,
                                             color=img.rank // 4,
                                             key=img.rank)
            quarter = yield from img.team_split(half,
                                                color=img.team_rank(half) // 2,
                                                key=img.rank)
            return quarter.members

        _m, results = spmd(kernel, n=8)
        # Contiguous memberships are stored as ranges (O(1) block teams);
        # the member sequence itself is what the split must produce.
        assert list(results[0]) == [0, 1]
        assert list(results[5]) == [4, 5]
        assert list(results[7]) == [6, 7]
