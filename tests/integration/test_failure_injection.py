"""Failure injection: the runtime must stay consistent when user code
misbehaves or the network is hostile."""

import numpy as np
import pytest

from repro import FinishError, Machine, MachineParams, run_spmd
from repro.net.active_messages import AMSizeError


def _finish_error(kernel, n):
    """Run ``kernel`` on ``n`` images, expecting its shipped functions
    to fail it: the block must still have terminated with balanced
    counters (the images' sent, received and completed sum alike) before
    ``end finish`` raised the :class:`FinishError`, noted ``main@1``."""
    machine = Machine(n)
    machine.launch(kernel)
    with pytest.raises(FinishError, match="main@1") as caught:
        machine.run(max_events=2_000_000)
    frames = machine._frames.values()
    sent = sum(f.c_sent for f in frames)
    assert sent == sum(f.c_delivered for f in frames)
    assert sent == sum(f.c_received for f in frames)
    assert sent == sum(f.c_completed for f in frames)
    assert machine.stats["finish.completed"] >= 1
    return machine, caught.value


class TestFailingShippedFunctions:
    def test_finish_terminates_when_shipped_function_raises(self):
        """A crashing shipped function still counts as completed, so
        finish terminates; then its ``end finish`` raises the failure."""

        def bomb(img):
            yield from img.compute(1e-6)
            raise RuntimeError("shipped function crashed")

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(bomb, 1)
            rounds = yield from img.finish_end()
            return rounds

        _m, err = _finish_error(kernel, 3)
        assert [name for name, _exc in err.errors] == ["bomb@1"]
        assert isinstance(err.__cause__, RuntimeError)

    def test_crash_in_chain_does_not_orphan_counters(self):
        """A crash mid-chain: work spawned before the raise completes,
        work after it never starts, finish still terminates."""
        done = []

        def leaf(img):
            done.append(img.rank)
            yield from img.compute(1e-7)

        def middle(img):
            yield from img.spawn(leaf, 0)
            raise ValueError("boom")
            yield from img.spawn(leaf, 2)  # unreachable

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(middle, 1)
            yield from img.finish_end()
            return list(done)

        _m, err = _finish_error(kernel, 3)
        assert done == [0]
        assert [name for name, _exc in err.errors] == ["middle@1"]
        assert isinstance(err.__cause__, ValueError)

    def test_refused_spawn_leaves_finish_balanced(self):
        """A spawn whose argument is over ``am_medium_max`` is refused
        before it leaves (``AMSizeError`` in the shipped function that
        made it): its send must not stay counted, or the frame never
        balances and finish waits forever."""

        def leaf(img, blob):
            yield from img.compute(1e-7)

        def shipper(img):
            blob = np.zeros(img.machine.params.am_medium_max, np.uint8)
            yield from img.spawn(leaf, 0, blob)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(shipper, 1)
            return (yield from img.finish_end())

        machine, err = _finish_error(kernel, 2)
        assert machine.stats["finish.sends_failed"] == 1
        assert machine.stats["spawn.executed"] == 1
        assert [name for name, _exc in err.errors] == ["shipper@1"]
        assert isinstance(err.__cause__, AMSizeError)

    def test_main_kernel_exception_is_not_swallowed(self, spmd):
        def kernel(img):
            yield from img.compute(1e-6)
            if img.rank == 1:
                raise KeyError("user bug on image 1")

        with pytest.raises(KeyError, match="main@1"):
            spmd(kernel, n=2)


class TestHostileNetworks:
    @pytest.mark.parametrize("jitter", [0.3, 0.9])
    def test_heavy_jitter_never_breaks_finish(self, spmd, jitter):
        def hop(img, n):
            yield from img.compute(1e-6)
            if n:
                yield from img.spawn(hop, (img.team_rank() + 1) % img.nimages,
                                     n - 1)

        def kernel(img):
            yield from img.finish_begin()
            yield from img.spawn(hop, (img.rank + 1) % img.nimages, 3)
            yield from img.finish_end()

        params = MachineParams.uniform(5, jitter=jitter)
        spmd(kernel, n=5, params=params)

    def test_slow_acks_delay_local_op_not_local_data(self, spmd):
        def setup(m):
            m.coarray("T", shape=4)

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                op = img.copy_async(T.ref(1), np.ones(4))
                yield op.local_data
                t_ld = img.now
                yield op.local_op
                return (t_ld, img.now)
            yield from img.compute(1e-3)
            return None

        fast = MachineParams.uniform(2, ack_latency_factor=1.0)
        slow = MachineParams.uniform(2, ack_latency_factor=20.0)
        _m, r_fast = spmd(kernel, n=2, setup=setup, params=fast)
        _m, r_slow = spmd(kernel, n=2, setup=setup, params=slow)
        # local data unchanged; local op pays the slow ack
        assert r_slow[0][0] == pytest.approx(r_fast[0][0])
        assert r_slow[0][1] > r_fast[0][1]

    def test_tight_flow_control_preserves_uts_correctness(self):
        from repro.apps.uts import (TreeParams, UTSConfig, run_uts,
                                    sequential_tree_size)
        tree = TreeParams(max_depth=5)
        params = MachineParams.uniform(4, flow_credits=1)
        result = run_uts(4, UTSConfig(tree=tree), params=params)
        assert result.total_nodes == sequential_tree_size(tree)


class TestScaleSmoke:
    def test_hundred_plus_images_barrier_and_finish(self, spmd):
        def kernel(img):
            yield from img.barrier()
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_noop, img.nimages - 1)
            rounds = yield from img.finish_end()
            total = yield from img.allreduce(1)
            return (rounds, total)

        _m, results = spmd(kernel, n=128)
        assert all(total == 128 for _r, total in results)

    def test_single_image_machine_degenerates_gracefully(self, spmd):
        def kernel(img):
            yield from img.barrier()
            yield from img.finish_begin()
            yield from img.spawn(_noop, 0)  # spawn to self
            rounds = yield from img.finish_end()
            v = yield from img.allreduce(42)
            buf = np.zeros(2)
            buf[:] = 7.0
            op = img.broadcast_async(buf, root=0)
            yield op.local_op
            return (rounds, v)

        _m, results = spmd(kernel, n=1)
        assert results[0][1] == 42


def _noop(img):
    yield from img.compute(1e-7)
