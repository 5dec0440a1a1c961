"""Unit tests for the network cost model."""

import pytest

from repro.net.topology import MachineParams
from repro.net.transport import Message, Network
from repro.sim.engine import Simulator


class TestUniformTopology:
    def test_remote_and_self_latency(self):
        sim = Simulator()
        net = Network(sim, MachineParams(4, wire_latency=1e-6,
                                         self_latency=1e-8,
                                         o_send=0.0, o_recv=0.0))
        arrived = {}
        for src, dst in ((0, 1), (3, 0), (2, 2)):
            net.send(Message(src, dst, 0, None, on_deliver=lambda m:
                             arrived.setdefault((m.src, m.dst), sim.now)))
        sim.run()
        assert arrived == {(0, 1): 1e-6, (3, 0): 1e-6, (2, 2): 1e-8}

    def test_bad_sizes(self):
        with pytest.raises(ValueError, match="n_images"):
            MachineParams.uniform(0)
        with pytest.raises(ValueError, match="wire_latency"):
            MachineParams.uniform(2, wire_latency=0)
        with pytest.raises(ValueError, match="self_latency"):
            MachineParams.uniform(2, self_latency=0)


class TestMachineParams:
    def test_defaults_and_transfer_time(self):
        p = MachineParams.uniform(8)
        assert p.n_images == 8
        assert p.transfer_time(5_000_000_000) == pytest.approx(1.0)
        assert p.transfer_time(0) == 0.0

    def test_uniform_forwarding_of_latency_kwargs(self):
        p = MachineParams.uniform(4, wire_latency=9e-6)
        assert p.wire_latency == 9e-6
        assert p.self_latency == 1e-7

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
        with pytest.raises(ValueError, match="ack_latency_factor"):
            MachineParams.uniform(2, ack_latency_factor=-1.0)
        assert MachineParams.uniform(
            2, ack_latency_factor=0.0).ack_latency_factor == 0.0
        with pytest.raises(ValueError):
            MachineParams.uniform(2).transfer_time(-1)
