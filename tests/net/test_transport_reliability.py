"""The reliable-delivery protocol: exactly-once handlers above a lossy
wire, ack-driven retransmission with backoff, and a retry cap."""

import pytest

from repro.sim.engine import Simulator
from repro.net.faults import FaultPlan, NicStall
from repro.net.topology import MachineParams
from repro.net.transport import Message, Network, RetryExhaustedError


def make_net(n=4, faults=None, **kwargs):
    sim = Simulator()
    defaults = dict(
        n_images=n, wire_latency=1e-6, self_latency=1e-7,
        bandwidth=1e9, o_send=1e-7, o_recv=1e-7, reliable=True,
    )
    defaults.update(kwargs)
    params = MachineParams(**defaults)
    return sim, Network(sim, params, faults=faults)


class TestCleanNetworkEquivalence:
    def test_reliable_ack_matches_unreliable_timing(self):
        """With no faults, enabling the protocol must not move the
        delivered-ack time: the protocol ack travels exactly like the
        NIC-level phantom ack of the unreliable model."""
        times = {}
        for reliable in (False, True):
            sim, net = make_net(reliable=reliable)
            receipt = net.send(Message(0, 1, 1000, None), want_ack=True)
            receipt.delivered.add_done_callback(
                lambda _f, s=sim, r=reliable: times.__setitem__(r, s.now))
            sim.run()
        assert times[True] == pytest.approx(times[False])

    def test_no_spurious_retransmits_when_clean(self):
        sim, net = make_net()
        for i in range(10):
            net.send(Message(0, (i % 3) + 1, 500, i), want_ack=True)
        sim.run()
        assert net.stats["net.retransmits"] == 0
        assert net.stats["net.acks"] == 10
        assert not net.diagnostics()["unacked"]

    def test_per_network_seq_restarts(self):
        """Satellite: message seqs are per-Network, so two back-to-back
        simulations number their messages identically."""
        seqs = []
        for _ in range(2):
            sim, net = make_net()
            m1, m2 = Message(0, 1, 8, None), Message(1, 2, 8, None)
            net.send(m1)
            net.send(m2)
            seqs.append((m1.seq, m2.seq))
        assert seqs[0] == seqs[1] == (0, 1)


class TestExactlyOnce:
    def test_dropped_message_is_retransmitted(self):
        sim, net = make_net(faults=FaultPlan().drop_nth("msg", 1))
        got = []
        receipt = net.send(Message(0, 1, 1000, "x",
                                   on_deliver=lambda m: got.append(m.payload)),
                           want_ack=True)
        sim.run()
        assert got == ["x"]
        assert receipt.delivered.done
        assert net.stats["net.drops"] == 1
        assert net.stats["net.retransmits"] == 1

    def test_duplicate_delivery_suppressed(self):
        sim, net = make_net(faults=FaultPlan(duplicate=0.9999, seed=1))
        got = []
        net.send(Message(0, 1, 1000, "x",
                         on_deliver=lambda m: got.append(m.payload)))
        sim.run()
        assert got == ["x"]
        assert net.stats["net.dups"] >= 1
        assert net.stats["net.dups_suppressed"] >= 1

    def test_lost_ack_healed_by_reack(self):
        """An ack-only loss forces a retransmission whose duplicate is
        suppressed but re-acked; the handler still runs exactly once."""
        sim, net = make_net(
            faults=FaultPlan(drop=0.0, ack_drop=0.5, seed=2))
        got = []
        receipt = net.send(Message(0, 1, 1000, "x",
                                   on_deliver=lambda m: got.append(m.payload)),
                           want_ack=True)
        sim.run()
        assert got == ["x"]
        assert receipt.delivered.done
        assert net.stats["net.ack_drops"] >= 1
        assert net.stats["net.dups_suppressed"] >= 1

    def test_handlers_exactly_once_under_heavy_chaos(self):
        sim, net = make_net(
            faults=FaultPlan(drop=0.3, duplicate=0.3, reorder=2.0, seed=9))
        got = []
        for i in range(40):
            net.send(Message(0, 1, 100, i,
                             on_deliver=lambda m: got.append(m.payload)),
                     want_ack=True)
        sim.run()
        assert sorted(got) == list(range(40))
        assert net.stats["net.drops"] > 0
        assert net.stats["net.retransmits"] > 0
        assert not net.diagnostics()["unacked"]

    def test_loopback_never_faulted(self):
        sim, net = make_net(faults=FaultPlan(drop=0.9999, seed=3))
        got = []
        net.send(Message(2, 2, 100, "self",
                         on_deliver=lambda m: got.append(m.payload)))
        sim.run()
        assert got == ["self"]
        assert net.stats["net.drops"] == 0


class TestRetransmissionPolicy:
    def test_backoff_doubles_retry_spacing(self):
        """With every transmission dropped, retries happen at rto, then
        rto*backoff, ... — measured from each retransmission's injection."""
        sim, net = make_net(
            faults=FaultPlan(drop=0.9999, seed=4),
            retry_cap=3)
        with pytest.raises(RetryExhaustedError):
            net.send(Message(0, 1, 1000, None))
            sim.run()
        assert net.stats["net.retransmits"] == 3
        assert net.stats["net.drops"] == 4  # original + 3 retries

    def test_retry_exhaustion_message_names_link(self):
        sim, net = make_net(faults=FaultPlan(drop=0.9999, seed=5),
                            retry_cap=1)
        with pytest.raises(RetryExhaustedError, match=r"link \(0, 1\)"):
            net.send(Message(0, 1, 1000, None))
            sim.run()

    def test_nic_stall_delays_injection(self):
        stall = NicStall(image=0, start=0.0, duration=5e-6)
        sim, net = make_net(faults=FaultPlan(stalls=[stall]))
        receipt = net.send(Message(0, 1, 1000, None))
        times = []
        receipt.injected.add_done_callback(lambda _f: times.append(sim.now))
        sim.run()
        # injection starts at stall end, not t=0
        assert times == [pytest.approx(5e-6 + 1.1e-6)]
        assert net.stats["net.nic_stalls"] == 1

    def test_drop_and_retransmit_counted_per_kind(self):
        sim, net = make_net(faults=FaultPlan().drop_nth("spawn", 1))
        net.send(Message(0, 1, 64, None, kind="spawn"), want_ack=True)
        sim.run()
        assert net.stats["net.drops.spawn"] == 1
        assert net.stats["net.retransmits.spawn"] == 1

    def test_lost_records_kept_for_diagnostics(self):
        sim, net = make_net(reliable=False,
                            faults=FaultPlan().drop_nth("msg", 1))
        net.send(Message(0, 1, 64, None))
        sim.run()
        assert len(net.lost) == 1
        assert "0->1" in net.lost[0]


class TestUnreliableChaos:
    def test_drop_without_protocol_loses_message(self):
        sim, net = make_net(reliable=False,
                            faults=FaultPlan().drop_nth("msg", 1))
        got = []
        receipt = net.send(Message(0, 1, 1000, "x",
                                   on_deliver=lambda m: got.append(m.payload)),
                           want_ack=True)
        sim.run()
        assert got == []
        assert not receipt.delivered.done
        assert net.stats["net.drops"] == 1

    def test_duplicate_without_protocol_runs_handler_twice(self):
        sim, net = make_net(reliable=False,
                            faults=FaultPlan(duplicate=0.9999, seed=6))
        got = []
        net.send(Message(0, 1, 1000, "x",
                         on_deliver=lambda m: got.append(m.payload)))
        sim.run()
        assert got == ["x", "x"]
        assert net.stats["net.dups"] == 1
