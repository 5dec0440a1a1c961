"""Tests for the predicated asynchronous copy (paper §II-C.1)."""

import numpy as np
import pytest


def _setup_table(m):
    m.coarray("T", shape=8, dtype=np.float64)


class TestPutPath:
    def test_local_buffer_to_remote(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                op = img.copy_async(T.ref(1), np.arange(8.0))
                yield op.global_done
            yield from img.barrier()
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=_setup_table)
        assert results[1] == list(range(8))
        assert results[0] == [0.0] * 8

    def test_local_coarray_section_to_remote(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                T.local_at(0)[:] = 5.0
                op = img.copy_async(T.ref(1, slice(0, 4)),
                                    T.ref(0, slice(4, 8)))
                yield op.global_done
            yield from img.barrier()
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=_setup_table)
        assert results[1] == [5.0] * 4 + [0.0] * 4

    def test_completion_order_invariant(self, spmd, fast_params):
        """local_data <= local_op <= global_done in time (Fig. 1)."""
        times = {}

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                op = img.copy_async(T.ref(1), np.ones(8))
                op.local_data.add_done_callback(
                    lambda _f: times.setdefault("ld", img.now))
                op.local_op.add_done_callback(
                    lambda _f: times.setdefault("lo", img.now))
                op.global_done.add_done_callback(
                    lambda _f: times.setdefault("gd", img.now))
                yield op.global_done
            yield from img.barrier()

        spmd(kernel, n=2, setup=_setup_table, params=fast_params(2))
        assert times["ld"] <= times["lo"] <= times["gd"]
        # local data (injection) strictly precedes delivery ack
        assert times["ld"] < times["lo"]

    def test_src_event_signals_buffer_reuse(self, spmd):
        def setup(m):
            _setup_table(m)
            m.make_event(name="srcE")

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            ev = img.machine.event_by_name("srcE")
            if img.rank == 0:
                img.copy_async(T.ref(1), np.full(8, 2.0), src_event=ev)
                yield from img.event_wait(ev)
                return img.now
            yield from img.barrier()
            return None

        # note: rank 1 barrier alone is fine — rank 0 skips it
        def kernel2(img):
            T = img.machine.coarray_by_name("T")
            ev = img.machine.event_by_name("srcE")
            if img.rank == 0:
                img.copy_async(T.ref(1), np.full(8, 2.0), src_event=ev)
                yield from img.event_wait(ev)
            yield from img.barrier()
            return img.now

        spmd(kernel2, n=2, setup=setup)

    def test_dest_event_posts_at_destination(self, spmd):
        def setup(m):
            _setup_table(m)
            m.make_event(name="destE")

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            ev = img.machine.event_by_name("destE")
            if img.rank == 0:
                img.copy_async(T.ref(1), np.full(8, 3.0), dest_event=ev.at(1))
            elif img.rank == 1:
                yield from img.event_wait(ev)
                # the event arrives with (or after) the data
                assert T.local_at(1).tolist() == [3.0] * 8
            yield from img.barrier()

        spmd(kernel, n=2, setup=setup)


class TestGetPath:
    def test_remote_to_local_buffer(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            T.local_at(img.rank)[:] = float(img.rank + 1)
            yield from img.barrier()
            if img.rank == 0:
                buf = np.zeros(8)
                op = img.copy_async(buf, T.ref(1))
                yield op.local_data
                return buf.tolist()
            yield from img.compute(1e-6)
            return None

        _m, results = spmd(kernel, n=2, setup=_setup_table)
        assert results[0] == [2.0] * 8

    def test_get_takes_round_trip_time(self, spmd, fast_params):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                buf = np.zeros(8)
                op = img.copy_async(buf, T.ref(1))
                yield op.local_data
                return img.now
            yield from img.compute(1e-6)
            return None

        m, results = spmd(kernel, n=2, setup=_setup_table,
                          params=fast_params(2))
        assert results[0] >= 2 * 1e-6  # two wire latencies minimum


class TestForwardPath:
    def test_third_party_copy(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            T.local_at(img.rank)[:] = float(img.rank)
            yield from img.barrier()
            if img.rank == 0:
                op = img.copy_async(T.ref(2), T.ref(1))  # 1 -> 2, initiated by 0
                yield op.global_done
            yield from img.barrier()
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=3, setup=_setup_table)
        assert results[2] == [1.0] * 8

    def test_forward_with_dest_event(self, spmd):
        def setup(m):
            _setup_table(m)
            m.make_event(name="arrived")

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            ev = img.machine.event_by_name("arrived")
            T.local_at(img.rank)[:] = float(img.rank * 10)
            yield from img.barrier()
            if img.rank == 0:
                img.copy_async(T.ref(2), T.ref(1), dest_event=ev.at(2))
            if img.rank == 2:
                yield from img.event_wait(ev)
                assert T.local_at(2).tolist() == [10.0] * 8
            yield from img.barrier()

        spmd(kernel, n=3, setup=setup)


class TestLocalPath:
    def test_local_to_local(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            src = np.full(8, 4.0)
            op = img.copy_async(T.ref(img.rank), src)
            yield op.global_done
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=_setup_table)
        assert results == [[4.0] * 8] * 2

    def test_local_buffer_to_local_buffer(self, spmd):
        def kernel(img):
            a = np.arange(4.0)
            b = np.zeros(4)
            op = img.copy_async(b, a)
            yield op.global_done
            return b.tolist()

        _m, results = spmd(kernel, n=1)
        assert results[0] == [0.0, 1.0, 2.0, 3.0]


class TestPredicate:
    def test_pre_event_defers_copy(self, spmd):
        def setup(m):
            _setup_table(m)
            m.make_event(name="go")

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            go = img.machine.event_by_name("go")
            if img.rank == 0:
                op = img.copy_async(T.ref(1), np.full(8, 9.0), pre_event=go)
                yield from img.compute(5e-6)
                # gated on the predicate: initiated, nothing else
                assert op.initiated.done
                assert not (op.local_data.done or op.local_op.done
                            or op.global_done.done)
                yield from img.event_notify(go)
                yield op.global_done
                assert op.local_data.done and op.local_op.done
            yield from img.barrier()
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=setup)
        assert results[1] == [9.0] * 8

    def test_remote_pre_event(self, spmd):
        def setup(m):
            _setup_table(m)
            m.make_event(name="go")

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            go = img.machine.event_by_name("go")
            if img.rank == 0:
                # predicate lives on image 1; image 1 posts it later
                op = img.copy_async(T.ref(1), np.full(8, 6.0),
                                    pre_event=go.at(1))
                yield op.global_done
                return img.now
            elif img.rank == 1:
                yield from img.compute(1e-5)
                yield from img.event_notify(go)
            yield from img.compute(1e-6)
            return None

        _m, results = spmd(kernel, n=2, setup=setup)
        assert results[0] > 1e-5  # waited for the remote predicate


class TestValidation:
    def test_bad_endpoint_type(self, spmd):
        def kernel(img):
            with pytest.raises(TypeError, match="CoarrayRef"):
                img.copy_async([1, 2, 3], np.zeros(3))
            yield from img.barrier()

        spmd(kernel, n=1)

    def test_bad_event_type(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            with pytest.raises(TypeError, match="EventVar"):
                img.copy_async(T.ref(0), np.zeros(8), src_event="nope")
            yield from img.barrier()

        spmd(kernel, n=1, setup=_setup_table)
