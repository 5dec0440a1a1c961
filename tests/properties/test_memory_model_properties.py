"""Property-based tests for the reorder-legality oracle."""

from hypothesis import given, strategies as st

from repro.runtime.memory_model import (
    ANY,
    READ,
    WRITE,
    FenceItem,
    NotifyItem,
    OpItem,
    ReorderOracle,
    WaitItem,
    allowed_set,
    may_pass,
)

ops = st.builds(
    OpItem,
    name=st.text(alphabet="abcdef", min_size=1, max_size=3),
    reads_local=st.booleans(),
    writes_local=st.booleans(),
)
fence_args = st.sampled_from([None, READ, WRITE, ANY])
fences = st.builds(FenceItem, downward=fence_args, upward=fence_args)
syncs = st.one_of(fences, st.just(NotifyItem()), st.just(WaitItem()))


@given(op=ops, fence=fences)
def test_any_direction_admits_every_op(op, fence):
    assert ReorderOracle.may_sink(op, FenceItem(downward=ANY))
    assert ReorderOracle.may_hoist(op, FenceItem(upward=ANY))


@given(op=ops)
def test_default_fence_admits_only_no_effect_ops(op):
    fence = FenceItem()
    expected = op.classes == frozenset()
    assert ReorderOracle.may_sink(op, fence) == expected
    assert ReorderOracle.may_hoist(op, fence) == expected


@given(op=ops, sync=syncs)
def test_sink_hoist_are_total(op, sync):
    assert isinstance(ReorderOracle.may_sink(op, sync), bool)
    assert isinstance(ReorderOracle.may_hoist(op, sync), bool)


@given(op=ops)
def test_notify_wait_duality(op):
    """Release and acquire are mirror images: what a notify pins
    downward, a wait frees downward, and vice versa upward."""
    assert ReorderOracle.may_sink(op, NotifyItem()) is False
    assert ReorderOracle.may_sink(op, WaitItem()) is True
    assert ReorderOracle.may_hoist(op, NotifyItem()) is True
    assert ReorderOracle.may_hoist(op, WaitItem()) is False


@given(op_classes=st.frozensets(st.sampled_from([READ, WRITE])),
       arg=fence_args)
def test_may_pass_is_monotone_in_allowed_set(op_classes, arg):
    """Growing the allowed set never newly blocks an operation."""
    allowed = allowed_set(arg)
    if may_pass(op_classes, allowed):
        assert may_pass(op_classes, allowed | frozenset({READ}))
        assert may_pass(op_classes, allowed | frozenset({WRITE}))
