"""Unit tests for pending-op tracking and the reorder oracle."""

import pytest

from repro.core.completion import AsyncOp
from repro.sim.tasks import Future
from repro.runtime.memory_model import (
    ANY,
    READ,
    WRITE,
    Activation,
    FenceItem,
    NotifyItem,
    OpItem,
    ReorderOracle,
    WaitItem,
    allowed_set,
    classes_of,
    may_pass,
)


class TestClasses:
    def test_classes_of(self):
        assert classes_of(True, False) == frozenset({READ})
        assert classes_of(False, True) == frozenset({WRITE})
        assert classes_of(True, True) == frozenset({READ, WRITE})
        assert classes_of(False, False) == frozenset()

    def test_allowed_set(self):
        assert allowed_set(None) == frozenset()
        assert allowed_set(READ) == frozenset({READ})
        assert allowed_set(WRITE) == frozenset({WRITE})
        assert allowed_set(ANY) == frozenset({READ, WRITE})

    def test_allowed_set_invalid(self):
        with pytest.raises(ValueError):
            allowed_set("sideways")

    def test_may_pass_requires_every_class(self):
        rw = classes_of(True, True)
        assert not may_pass(rw, allowed_set(READ))
        assert not may_pass(rw, allowed_set(WRITE))
        assert may_pass(rw, allowed_set(ANY))
        # An op with no local effect passes any fence.
        assert may_pass(frozenset(), allowed_set(None))


class _FakeState:
    finish_stack: list = []


def make_op(kind="copy", reads=True, writes=False):
    """The handle of a one-message operation: its delivery ack is both
    its local operation and its global completion."""
    delivered = Future("delivered")
    return AsyncOp(kind, classes_of(reads, writes), Future("ld"), delivered,
                   delivered)


class TestActivation:
    def test_register_and_fence_waits(self):
        act = Activation(_FakeState())
        op = act.register(make_op(reads=True))
        waits = act.fence_waits(allowed_set(None))
        assert waits == [op.local_data]

    def test_fence_waits_respect_downward_filter(self):
        act = Activation(_FakeState())
        reader = act.register(make_op(reads=True, writes=False))
        writer = act.register(make_op(reads=False, writes=True))
        waits = act.fence_waits(allowed_set(WRITE))
        # writes may pass; the read op must be waited for
        assert waits == [reader.local_data]
        waits = act.fence_waits(allowed_set(ANY))
        assert waits == []

    def test_completed_ops_are_pruned(self):
        act = Activation(_FakeState())
        op = act.register(make_op())
        op.local_data.set_result(None)
        op.global_done.set_result(None)
        assert act.pending == []
        assert act.fence_waits(allowed_set(None)) == []

    def test_register_sweeps_completed_ops_amortised(self):
        """An activation that only initiates — never a cofence, notify or
        ``.pending`` — must not keep every completed op alive: register
        itself sweeps whenever the list doubled, and never drops an op
        that is still in flight."""
        act = Activation(_FakeState())
        live = [act.register(make_op()) for _ in range(5)]
        for _ in range(1000):
            op = act.register(make_op())
            op.local_data.set_result(None)
            op.global_done.set_result(None)
        assert len(act._pending) <= 2 * Activation._PRUNE_MIN
        assert act.pending == live

    def test_finish_end_leaves_no_pending_records(self):
        """The RandomAccess shape: a main program that only spawns inside
        finish blocks.  Global completion is what ``finish_end``
        guarantees, so nothing it covered stays on record."""
        from repro.runtime.program import run_spmd

        def touch(img):
            yield from img.compute(1e-7)

        def kernel(img):
            for _ in range(4):
                yield from img.finish_begin()
                for _ in range(100):
                    yield from img.spawn(touch, (img.rank + 1) % img.nimages)
                yield from img.finish_end()
            return len(img._pending)

        _, left = run_spmd(kernel, 2)
        assert left == [0, 0]

    def test_release_waits(self):
        act = Activation(_FakeState())
        op = act.register(make_op())
        assert act.release_waits() == [op.global_done]
        op.global_done.set_result(None)
        op.local_data.set_result(None)
        assert act.release_waits() == []

    def test_current_frame_dynamic_vs_pinned(self):
        state = _FakeState()
        state.finish_stack = ["outer"]
        main = Activation(state)
        assert main.current_frame() == "outer"
        shipped = Activation(state, finish_frame="pinned")
        assert shipped.current_frame() == "pinned"
        assert shipped.in_shipped_function
        assert not main.in_shipped_function


class TestReorderOracle:
    def test_default_fence_blocks_both_directions(self):
        op_r = OpItem("r", reads_local=True)
        fence = FenceItem()
        assert not ReorderOracle.may_sink(op_r, fence)
        assert not ReorderOracle.may_hoist(op_r, fence)

    def test_directional_fence(self):
        op_w = OpItem("w", writes_local=True)
        op_r = OpItem("r", reads_local=True)
        fence = FenceItem(downward=WRITE, upward=READ)
        assert ReorderOracle.may_sink(op_w, fence)
        assert not ReorderOracle.may_sink(op_r, fence)
        assert ReorderOracle.may_hoist(op_r, fence)
        assert not ReorderOracle.may_hoist(op_w, fence)

    def test_read_write_op_needs_any(self):
        op_rw = OpItem("rw", reads_local=True, writes_local=True)
        assert not ReorderOracle.may_sink(op_rw, FenceItem(downward=WRITE))
        assert ReorderOracle.may_sink(op_rw, FenceItem(downward=ANY))

    def test_notify_is_release(self):
        op = OpItem("x", writes_local=True)
        assert not ReorderOracle.may_sink(op, NotifyItem())
        assert ReorderOracle.may_hoist(op, NotifyItem())

    def test_wait_is_acquire(self):
        op = OpItem("x", reads_local=True)
        assert ReorderOracle.may_sink(op, WaitItem())
        assert not ReorderOracle.may_hoist(op, WaitItem())
