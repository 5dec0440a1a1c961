"""Unit tests for network cost models."""

import pytest

from repro.net.topology import (
    HierarchicalTopology,
    MachineParams,
    UniformTopology,
)


class TestUniformTopology:
    def test_remote_and_self_latency(self):
        t = UniformTopology(4, wire_latency=1e-6, self_latency=1e-8)
        assert t.latency(0, 1) == 1e-6
        assert t.latency(3, 0) == 1e-6
        assert t.latency(2, 2) == 1e-8

    def test_out_of_range_pair(self):
        t = UniformTopology(2)
        with pytest.raises(ValueError):
            t.latency(0, 2)
        with pytest.raises(ValueError):
            t.latency(-1, 0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            UniformTopology(0)
        with pytest.raises(ValueError):
            UniformTopology(2, wire_latency=0)


class TestHierarchicalTopology:
    def test_intra_vs_inter_node(self):
        t = HierarchicalTopology(16, images_per_node=4,
                                 intra_latency=1e-7, inter_latency=2e-6)
        assert t.latency(0, 3) == 1e-7   # same node
        assert t.latency(0, 4) == 2e-6   # different node
        assert t.node_of(5) == 1

    def test_self_latency(self):
        t = HierarchicalTopology(8, self_latency=5e-8)
        assert t.latency(1, 1) == 5e-8


class TestMachineParams:
    def test_defaults_and_transfer_time(self):
        p = MachineParams.uniform(8)
        assert p.n_images == 8
        assert p.transfer_time(5_000_000_000) == pytest.approx(1.0)
        assert p.transfer_time(0) == 0.0

    def test_uniform_forwarding_of_latency_kwargs(self):
        p = MachineParams.uniform(4, wire_latency=9e-6)
        assert p.topology.latency(0, 1) == 9e-6

    def test_am_medium_max_default(self):
        # Sized so a shipped steal carries exactly 9 UTS items (§IV-C);
        # the item arithmetic is asserted in tests/apps/test_uts.py.
        p = MachineParams.uniform(2)
        assert p.am_medium_max == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineParams.uniform(2, bandwidth=0)
        with pytest.raises(ValueError):
            MachineParams.uniform(2, jitter=1.5)
        with pytest.raises(ValueError):
            MachineParams.uniform(2, flow_credits=0)
        with pytest.raises(ValueError):
            MachineParams.uniform(2).transfer_time(-1)

