"""Tests for the cofence construct (paper §III-B)."""

import numpy as np
import pytest

from repro.runtime.memory_model import ANY, READ, WRITE


def _setup(m):
    m.coarray("T", shape=8, dtype=np.float64)


class TestBasicFence:
    def test_plain_cofence_waits_for_local_data(self, spmd, fast_params):
        """After cofence() the source buffer of an implicit put-style copy
        is reusable: its injection must have completed."""

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                op = img.copy_async(T.ref(1), np.ones(8))
                yield from img.cofence()
                assert op.local_data.done
                return img.now
            yield from img.compute(1e-6)
            return None

        _m, results = spmd(kernel, n=2, setup=_setup, params=fast_params(2))
        assert results[0] > 0

    def test_cofence_does_not_wait_for_global(self, spmd, fast_params):
        """cofence is local data completion only — strictly cheaper than
        waiting for delivery (the Fig. 12 point)."""

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                op = img.copy_async(T.ref(1), np.ones(8))
                yield from img.cofence()
                t_fence = img.now
                yield op.global_done
                t_done = img.now
                return (t_fence, t_done, op.global_done.done)
            yield from img.compute(1e-6)
            return None

        _m, results = spmd(kernel, n=2, setup=_setup, params=fast_params(2))
        t_fence, t_done, _ = results[0]
        assert t_fence < t_done  # fence returned before delivery+ack

    def test_cofence_with_nothing_pending_is_free(self, spmd):
        def kernel(img):
            t0 = img.now
            yield from img.cofence()
            assert img.now == t0
            yield from img.barrier()

        spmd(kernel, n=2)

    def test_get_style_copy_readable_after_cofence(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            T.local_at(img.rank)[:] = img.rank + 1.0
            yield from img.barrier()
            if img.rank == 0:
                buf = np.zeros(8)
                img.copy_async(buf, T.ref(1))
                yield from img.cofence()
                return buf.tolist()
            yield from img.compute(1e-6)
            return None

        _m, results = spmd(kernel, n=2, setup=_setup)
        assert results[0] == [2.0] * 8


class TestDirectionalArguments:
    def test_downward_write_lets_writes_pass(self, spmd):
        """Fig. 8: cofence(DOWNWARD=WRITE) does not wait for ops that
        only write local data, but does wait for local-read ops."""

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            T.local_at(img.rank)[:] = 1.0
            yield from img.barrier()
            if img.rank == 0:
                buf = np.zeros(8)
                get_op = img.copy_async(buf, T.ref(1))          # WRITE class
                put_op = img.copy_async(T.ref(1), np.ones(8))   # READ class
                yield from img.cofence(downward=WRITE)
                # the read op (put) had to reach local data completion...
                assert put_op.local_data.done
                return get_op.local_data.done
            yield from img.compute(1e-5)
            return None

        _m, results = spmd(kernel, n=2, setup=_setup)
        # With realistic latencies the get's round trip outlasts the
        # put's injection, so the WRITE-class op was allowed to pass.
        assert results[0] is False

    def test_downward_any_waits_for_nothing(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                t0 = img.now
                img.copy_async(T.ref(1), np.ones(8))
                yield from img.cofence(downward=ANY)
                assert img.now == t0  # nothing constrained
            yield from img.barrier()

        spmd(kernel, n=2, setup=_setup)

    def test_downward_read_constrains_writes(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                buf = np.zeros(8)
                get_op = img.copy_async(buf, T.ref(1))  # WRITE class
                yield from img.cofence(downward=READ)
                assert get_op.local_data.done  # writes were constrained
            yield from img.compute(1e-5)
            yield from img.barrier()

        spmd(kernel, n=2, setup=_setup)

    def test_invalid_argument_rejected(self, spmd):
        def kernel(img):
            with pytest.raises(ValueError, match="invalid cofence class"):
                yield from img.cofence(downward="sideways")
            with pytest.raises(ValueError, match="invalid cofence class"):
                yield from img.cofence(upward="diagonal")
            yield from img.barrier()

        spmd(kernel, n=1)


class TestDynamicScoping:
    def test_cofence_in_shipped_function_sees_only_its_ops(self, spmd):
        """Fig. 10: a cofence inside a shipped function does not cover
        asynchronous operations of the spawning image."""
        observations = []

        def remote(img):
            T = img.machine.coarray_by_name("T")
            op = img.copy_async(T.ref(0), np.full(8, 3.0))
            yield from img.cofence()
            observations.append(("inner_ld_done", op.local_data.done))

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.finish_begin()
            if img.rank == 0:
                # A long outer copy the inner cofence must NOT wait on:
                outer = img.copy_async(T.ref(1), np.zeros(8))
                yield from img.spawn(remote, 1)
                observations.append(("outer_pending", not outer.global_done.done))
            yield from img.finish_end()

        spmd(kernel, n=2, setup=_setup)
        assert ("inner_ld_done", True) in observations

    def test_main_cofence_ignores_shipped_function_ops(self, spmd):
        """The spawner's cofence covers argument evaluation of the spawn,
        not the spawned function's own operations (Fig. 10, line 9)."""

        def remote(img):
            T = img.machine.coarray_by_name("T")
            yield from img.compute(1e-5)
            img.copy_async(T.ref(0), np.full(8, 4.0))
            yield from img.cofence()

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.finish_begin()
            if img.rank == 0:
                op = yield from img.spawn(remote, 1)
                yield from img.cofence()
                # spawn args are evaluated (local data complete), but the
                # remote function has not finished
                assert op.local_data.done
                assert T.local_at(0).sum() == 0.0
            yield from img.finish_end()
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=_setup)
        # after finish, the shipped function's copy has landed
        assert results[0] == [4.0] * 8


def test_cofence_stats(spmd):
    def kernel(img):
        T = img.machine.coarray_by_name("T")
        img.copy_async(T.ref((img.rank + 1) % img.nimages), np.ones(8))
        yield from img.cofence()
        yield from img.barrier()

    m, _ = spmd(kernel, n=2, setup=_setup)
    assert m.stats["cofence.calls"] == 2
    assert m.stats["cofence.waited"] >= 1


class TestUpwardRecorded:
    """``upward`` cannot change execution order in the simulator, but it
    must be *observable*: a stats counter and, when the race detector is
    on, the per-fence class annotation (regression: it used to be
    silently dropped)."""

    def test_upward_counts_per_class(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            img.copy_async(T.ref((img.rank + 1) % img.nimages), np.ones(8))
            yield from img.cofence(upward=READ)
            yield from img.cofence(downward=ANY)
            yield from img.barrier()

        m, _ = spmd(kernel, n=2, setup=_setup)
        assert m.stats["cofence.upward.read"] == 2
        # a fence without upward= must not touch the counters
        assert "cofence.upward.None" not in m.stats
        assert "cofence.upward.write" not in m.stats

    def test_upward_annotation_reaches_detector(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            img.copy_async(T.ref((img.rank + 1) % img.nimages), np.ones(8))
            yield from img.cofence(downward=READ, upward=WRITE)
            yield from img.barrier()

        m, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        recorded = [(down, up) for _thread, down, up, _t in m.racecheck.fences]
        assert (READ, WRITE) in recorded

    def test_upward_is_validated(self, spmd):
        def kernel(img):
            yield from img.cofence(upward="sideways")

        with pytest.raises(ValueError, match="invalid cofence class"):
            spmd(kernel, n=1, setup=_setup)
