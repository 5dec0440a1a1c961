"""Tests for asynchronous collectives (paper §II-C.3)."""

import numpy as np
import pytest


class TestBroadcastAsync:
    def test_delivers_to_all(self, spmd):
        def kernel(img):
            buf = np.zeros(8)
            if img.rank == 2:
                buf[:] = np.arange(8)
            op = img.broadcast_async(buf, root=2)
            yield op.local_data
            return buf.tolist()

        _m, results = spmd(kernel, n=5)
        assert results == [list(map(float, range(8)))] * 5

    def test_src_event_signals_local_data(self, spmd):
        def setup(m):
            m.make_event(name="srcE")

        def kernel(img):
            ev = img.machine.event_by_name("srcE")
            buf = np.full(4, float(img.rank == 0))
            img.broadcast_async(buf, root=0, src_event=ev)
            yield from img.event_wait(ev)
            return buf.tolist()

        _m, results = spmd(kernel, n=4, setup=setup)
        assert results == [[1.0] * 4] * 4

    def test_local_event_signals_local_op(self, spmd):
        def setup(m):
            m.make_event(name="localE")

        def kernel(img):
            ev = img.machine.event_by_name("localE")
            buf = np.zeros(4)
            img.broadcast_async(buf, root=0, local_event=ev)
            yield from img.event_wait(ev)
            return img.now

        m, results = spmd(kernel, n=8, setup=setup)
        assert all(t > 0 for t in results)

    def test_overlap_with_computation(self, spmd, fast_params):
        """The point of async collectives: computation proceeds while the
        broadcast is in flight."""

        def kernel(img):
            buf = np.full(4, float(img.rank == 0))
            op = img.broadcast_async(buf, root=0)
            yield from img.compute(1e-5)  # overlapped work
            t_work = img.now
            yield op.local_op
            return (t_work, img.now)

        _m, results = spmd(kernel, n=4, params=fast_params(4))
        t_work, t_op = results[0]
        # the broadcast finished under the computation (no extra wait at root)
        assert t_op == pytest.approx(t_work)

    def test_explicit_broadcast_not_finish_counted(self, spmd):
        def setup(m):
            m.make_event(name="e")

        def kernel(img):
            ev = img.machine.event_by_name("e")
            buf = np.zeros(2)
            yield from img.finish_begin()
            frame = img.machine.image_state(img.rank).finish_stack[-1]
            img.broadcast_async(buf, root=0, local_event=ev)
            counted = frame.c_sent
            yield from img.finish_end()
            yield from img.event_wait(ev)
            return counted

        _m, results = spmd(kernel, n=2, setup=setup)
        assert results[0] == 0


class TestReduceAllreduceAsync:
    def test_reduce_to_root_buffer(self, spmd):
        def kernel(img):
            recv = np.zeros(1)
            op = img.reduce_async(float(img.rank + 1), recvbuf=recv, root=0)
            yield op.local_op
            yield from img.barrier()
            return recv[0]

        _m, results = spmd(kernel, n=4)
        assert results[0] == 10.0
        assert results[1] == 0.0

    def test_allreduce_async_everyone_gets_result(self, spmd):
        def kernel(img):
            out = np.zeros(1)
            op = img.allreduce_async(float(img.rank), result_buf=out)
            yield op.local_data
            return out[0]

        _m, results = spmd(kernel, n=6)
        assert results == [15.0] * 6

    def test_allreduce_async_max(self, spmd):
        def kernel(img):
            out = np.zeros(1)
            op = img.allreduce_async(float(img.rank * 3 % 7),
                                     result_buf=out, op="max")
            yield op.local_data
            return out[0]

        _m, results = spmd(kernel, n=5)
        assert results == [max(r * 3 % 7 for r in range(5))] * 5

    def test_barrier_async(self, spmd):
        def kernel(img):
            yield from img.compute((img.rank + 1) * 1e-5)
            op = img.barrier_async()
            yield op.local_op
            return img.now

        _m, results = spmd(kernel, n=4)
        # nobody passes the async barrier before the slowest arrives
        assert min(results) >= 4e-5


class TestCompositeCollectives:
    def test_gather_async(self, spmd):
        def kernel(img):
            op = img.gather_async(img.rank * 2, root=1)
            result = yield op.global_done
            yield from img.barrier()
            return result

        _m, results = spmd(kernel, n=3)
        assert results[1] == [0, 2, 4]
        assert results[0] is None

    def test_scatter_async(self, spmd):
        def kernel(img):
            values = list(range(0, 40, 10)) if img.rank == 0 else None
            op = img.scatter_async(values, root=0)
            return (yield op.global_done)

        _m, results = spmd(kernel, n=4)
        assert results == [0, 10, 20, 30]

    def test_allgather_async(self, spmd):
        def kernel(img):
            op = img.allgather_async(img.rank ** 2)
            return (yield op.global_done)

        _m, results = spmd(kernel, n=4)
        assert results == [[0, 1, 4, 9]] * 4

    def test_alltoall_async(self, spmd):
        def kernel(img):
            op = img.alltoall_async([f"{img.rank}->{j}"
                                     for j in range(img.nimages)])
            return (yield op.global_done)

        _m, results = spmd(kernel, n=3)
        assert results[2] == ["0->2", "1->2", "2->2"]

    def test_scan_async(self, spmd):
        def kernel(img):
            op = img.scan_async(img.rank + 1)
            return (yield op.global_done)

        _m, results = spmd(kernel, n=4)
        assert results == [1, 3, 6, 10]

    def test_sort_async(self, spmd):
        def kernel(img):
            values = np.array([10.0 - img.rank, 5.0 + img.rank])
            op = img.sort_async(values)
            chunk = yield op.global_done
            return chunk.tolist()

        _m, results = spmd(kernel, n=2)
        merged = sorted([10.0, 5.0, 9.0, 6.0])
        assert results[0] == merged[:2]
        assert results[1] == merged[2:]

    def test_composite_events_fire(self, spmd):
        def setup(m):
            m.make_event(name="srcE")
            m.make_event(name="localE")

        def kernel(img):
            src = img.machine.event_by_name("srcE")
            loc = img.machine.event_by_name("localE")
            img.allgather_async(img.rank, src_event=src, local_event=loc)
            yield from img.event_wait(src)
            yield from img.event_wait(loc)
            return True

        _m, results = spmd(kernel, n=3, setup=setup)
        assert results == [True] * 3

    def test_composite_inside_finish(self, spmd):
        collected = {}

        def kernel(img):
            yield from img.finish_begin()
            op = img.allgather_async(img.rank + 100)
            op.global_done.add_done_callback(
                lambda f: collected.setdefault(img.rank, f.result()))
            yield from img.finish_end()
            return collected.get(img.rank)

        _m, results = spmd(kernel, n=3)
        # finish waited for the composite collective to complete
        assert results == [[100, 101, 102]] * 3


#: a rooted asynchronous collective per row, called with
#: ``(img, buf, root, radix)``; gather and scatter take no radix
_ROOTED_ASYNC = {
    "broadcast_async": lambda img, buf, root, radix: img.broadcast_async(
        buf, root=root, radix=radix),
    "reduce_async": lambda img, buf, root, radix: img.reduce_async(
        1.0, recvbuf=buf, root=root, radix=radix),
    "gather_async": lambda img, buf, root, _radix: img.gather_async(
        1.0, root=root),
    "scatter_async": lambda img, buf, root, _radix: img.scatter_async(
        [1.0] * 4 if img.rank == root else None, root=root),
    "allreduce_async": lambda img, buf, _root, radix: img.allreduce_async(
        1.0, result_buf=buf, radix=radix),
}


class TestRootAndRadixValidation:
    """Inside a finish, a rooted collective with a root outside the team
    (or a radix below 1) raises at the call on every image — it used to
    return a handle that left every buffer untouched — and registers
    nothing: the next collective still matches up and the finish closes."""

    @pytest.mark.parametrize("name, arg, bad", [
        *((name, "root", bad)
          for name in ("broadcast_async", "reduce_async", "gather_async",
                       "scatter_async")
          for bad in (4, -1, 7)),
        *((name, "radix", bad)
          for name in ("broadcast_async", "reduce_async", "allreduce_async")
          for bad in (0, -2)),
    ])
    def test_rejected_inside_finish(self, spmd, name, arg, bad):
        root, radix = (bad, 2) if arg == "root" else (0, bad)

        def kernel(img):
            buf = np.full(2, float(img.rank))
            yield from img.finish_begin()
            with pytest.raises(ValueError,
                               match=rf"{arg} {bad} .*size 4\)"):
                _ROOTED_ASYNC[name](img, buf, root, radix)
            assert img.pending == []
            img.broadcast_async(buf, root=1)
            yield from img.finish_end()
            return buf.tolist()

        machine, results = spmd(kernel, n=4)
        assert results == [[1.0, 1.0]] * 4
        assert machine._coll_states == {}
