"""Unit tests for the message transport layer."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.trace import Stats
from repro.net.topology import MachineParams
from repro.net.transport import Message, Network


def make_net(n=4, **kwargs):
    sim = Simulator()
    defaults = dict(
        n_images=n, wire_latency=1e-6, self_latency=1e-7,
        bandwidth=1e9, o_send=1e-7, o_recv=1e-7,
    )
    defaults.update(kwargs)
    params = MachineParams(**defaults)
    return sim, Network(sim, params)


class TestDeliveryTiming:
    def test_basic_delivery_time(self):
        sim, net = make_net()
        arrivals = []
        msg = Message(0, 1, 1000, None, on_deliver=lambda m: arrivals.append(sim.now))
        net.send(msg)
        sim.run()
        # o_send + 1000/1e9 + latency + o_recv = 1e-7 + 1e-6 + 1e-6 + 1e-7
        assert arrivals == [pytest.approx(2.2e-6)]

    def test_injected_future_resolves_at_injection_end(self):
        sim, net = make_net()
        msg = Message(0, 1, 1000, None)
        receipt = net.send(msg)
        times = []
        receipt.injected.add_done_callback(lambda _f: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.1e-6)]  # o_send + size/bw

    def test_nic_serializes_injection(self):
        sim, net = make_net()
        arrivals = []
        for tag in range(3):
            net.send(Message(0, 1, 1000, tag,
                             on_deliver=lambda m: arrivals.append((m.payload, sim.now))))
        sim.run()
        # Each message adds o_send + transfer to the NIC busy window.
        t0 = 1.1e-6 + 1.1e-6  # inject end of msg0 + wire + o_recv
        assert arrivals[0] == (0, pytest.approx(t0))
        assert arrivals[1] == (1, pytest.approx(t0 + 1.1e-6))
        assert arrivals[2] == (2, pytest.approx(t0 + 2.2e-6))

    def test_nic_busy_until(self):
        sim, net = make_net()
        net.send(Message(0, 1, 1000, None))
        assert net.nic_busy_until(0) == pytest.approx(1.1e-6)
        assert net.nic_busy_until(1) == 0.0

    def test_loopback_uses_self_latency(self):
        sim, net = make_net()
        arrivals = []
        net.send(Message(2, 2, 0, None, on_deliver=lambda m: arrivals.append(sim.now)))
        sim.run()
        assert arrivals == [pytest.approx(1e-7 + 1e-7 + 1e-7)]


class TestAcks:
    def test_delivered_future_includes_ack_latency(self):
        sim, net = make_net()
        receipt = net.send(Message(0, 1, 0, None), want_ack=True)
        times = []
        receipt.delivered.add_done_callback(lambda _f: times.append(sim.now))
        sim.run()
        # inject o_send + wire + o_recv + ack wire
        assert times == [pytest.approx(1e-7 + 1e-6 + 1e-7 + 1e-6)]

    def test_no_ack_means_no_delivered_future(self):
        _sim, net = make_net()
        receipt = net.send(Message(0, 1, 0, None))
        assert receipt.delivered is None

    def test_ack_latency_factor(self):
        sim, net = make_net(ack_latency_factor=0.5)
        receipt = net.send(Message(0, 1, 0, None), want_ack=True)
        times = []
        receipt.delivered.add_done_callback(lambda _f: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1e-7 + 1e-6 + 1e-7 + 0.5e-6)]


class TestJitterAndStats:
    def test_jitter_reorders_messages(self):
        # With heavy jitter, two same-size messages sent back-to-back can
        # arrive out of order — the no-FIFO property the termination
        # detector must survive.
        sim, net = make_net(jitter=0.9)
        order = []
        for tag in range(20):
            net.send(Message(0, 1, 0, tag,
                             on_deliver=lambda m: order.append(m.payload)))
        sim.run()
        assert sorted(order) == list(range(20))
        assert order != list(range(20))

    def test_jitter_is_deterministic(self):
        # reproducibility requires a seed: seedless networks deliberately
        # draw distinct streams (see TestFallbackRngSeeding)
        def run_once():
            sim = Simulator()
            params = MachineParams(
                n_images=4, wire_latency=1e-6, self_latency=1e-7,
                bandwidth=1e9, o_send=1e-7, o_recv=1e-7, jitter=0.5)
            net = Network(sim, params, seed=7)
            order = []
            for tag in range(10):
                net.send(Message(0, 1, 0, tag,
                                 on_deliver=lambda m: order.append(m.payload)))
            sim.run()
            return order

        assert run_once() == run_once()

    def test_stats_counters(self):
        sim, net = make_net()
        net.send(Message(0, 1, 100, None, kind="test"))
        net.send(Message(1, 2, 50, None, kind="test"))
        sim.run()
        assert net.stats["net.msgs"] == 2
        assert net.stats["net.bytes"] == 150
        assert net.stats["net.kind.test"] == 2

    def test_external_stats_object(self):
        sim = Simulator()
        stats = Stats()
        params = MachineParams.uniform(2)
        net = Network(sim, params, stats=stats)
        net.send(Message(0, 1, 10, None))
        assert stats["net.msgs"] == 1


class TestJitterStream:
    """Jitter factors are drawn from the generator in blocks; the
    latencies must be those of one scalar ``uniform(-1, 1)`` draw per
    message, in send order."""

    JITTER = 0.25
    WIRE, LOOPBACK = 1e-6, 1e-7
    SEED = 7

    def make(self):
        # No overheads, size-0 messages, all sent at t=0: a message's
        # arrival time *is* its jittered latency, to the last bit.
        sim = Simulator()
        params = MachineParams(
            n_images=4, wire_latency=self.WIRE, self_latency=self.LOOPBACK,
            o_send=0.0, o_recv=0.0, jitter=self.JITTER)
        return sim, Network(sim, params, seed=self.SEED)

    def latencies(self, sim, net, pairs):
        arrived = {}
        for tag, (src, dst) in enumerate(pairs):
            net.send(Message(
                src, dst, 0, tag,
                on_deliver=lambda m: arrived.__setitem__(m.payload, sim.now)))
        sim.run()
        return [arrived[tag] for tag in range(len(pairs))]

    def reference(self, pairs, rng=None):
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(self.SEED))
        return [(self.LOOPBACK if src == dst else self.WIRE)
                * (1.0 + self.JITTER * float(rng.uniform(-1.0, 1.0)))
                for src, dst in pairs]

    def test_block_draws_equal_scalar_draws_across_refills(self):
        # 1200 sends cross the 512-draw block boundary twice; every
        # third one is a loopback, which draws like any other message.
        pairs = [(i % 4, i % 4) if i % 3 == 0 else (i % 4, (i + 1) % 4)
                 for i in range(1200)]
        runs = []
        for _ in range(2):  # back-to-back machines, same seed
            sim, net = self.make()
            runs.append(self.latencies(sim, net, pairs))
        assert runs[0] == self.reference(pairs)
        assert runs[1] == runs[0]

    def test_controlled_run_consumes_no_draws(self):
        class NominalLag:
            lag_steps = 1
            lag_slack = 0.5

        sim, net = self.make()
        pairs = [(0, 1), (1, 1), (2, 3)]
        net.schedule_source = NominalLag()
        assert self.latencies(sim, net, pairs) == [
            self.WIRE, self.LOOPBACK, self.WIRE]
        # back to jitter: the stream starts at its first draw, shifted
        # only by the clock
        net.schedule_source = None
        t0 = sim.now
        assert self.latencies(sim, net, pairs) == [
            t0 + lat for lat in self.reference(pairs)]


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(0, 1, -5, None)


def test_numpy_integer_size_becomes_int():
    msg = Message(0, 1, np.int64(4096), None)
    assert type(msg.size) is int and msg.size == 4096
    with pytest.raises(TypeError):
        Message(0, 1, 4096.0, None)


def test_out_of_range_ranks_rejected_before_any_state_changes():
    sim, net = make_net()
    for src, dst in ((0, 4), (4, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            net.send(Message(src, dst, 8, None))
    assert net.stats["net.msgs"] == 0
    assert sim.pending_events == 0


class TestFallbackRngSeeding:
    """Seedless networks must not share random streams (regression:
    the fallback jitter/fault streams were built from fixed constants,
    so every seedless Network in a process drew identical jitter)."""

    def _delivery_times(self, net, sim, n_msgs=16):
        times = []
        for i in range(n_msgs):
            net.send(Message(0, 1, 100, None,
                             on_deliver=lambda m: times.append(sim.now)))
        sim.run()
        return times

    def test_seedless_networks_draw_distinct_jitter(self):
        runs = []
        for _ in range(2):
            sim, net = make_net(jitter=0.5)
            runs.append(self._delivery_times(net, sim))
        assert runs[0] != runs[1]

    def test_seeded_networks_stay_reproducible(self):
        runs = []
        for _ in range(2):
            sim = Simulator()
            params = MachineParams(
                n_images=4, wire_latency=1e-6, self_latency=1e-7,
                bandwidth=1e9, o_send=1e-7, o_recv=1e-7, jitter=0.5)
            net = Network(sim, params, seed=42)
            runs.append(self._delivery_times(net, sim))
        assert runs[0] == runs[1]

    def test_seedless_fault_streams_distinct(self):
        from repro.net.faults import FaultPlan

        decisions = []
        for _ in range(2):
            sim = Simulator()
            params = MachineParams(
                n_images=4, wire_latency=1e-6, self_latency=1e-7,
                bandwidth=1e9, o_send=1e-7, o_recv=1e-7)
            net = Network(sim, params, faults=FaultPlan(drop=0.5))
            decisions.append([net.faults.roll_drop(0, 1)
                              for _ in range(64)])
        assert decisions[0] != decisions[1]
