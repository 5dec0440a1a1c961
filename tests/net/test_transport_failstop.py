"""Fail-stop behaviour of the transport: dead links, fail-fast sends,
and the typed RetryExhaustedError / PeerFailedError diagnostics.

The contract classes (``TestSendContract``, ``TestFailFastSend``,
``TestQuarantine``) run once over the simulator's ``Network`` and once,
through their ``...OverConduit`` subclass, over ``ProcessTransport``
wired in one process: the gate, the membership view and the quarantine
are one base class (DESIGN.md §14.2), so they get one suite."""

from types import SimpleNamespace

import pytest

from repro.backend.transport import ProcessTransport
from repro.net.faults import FaultPlan
from repro.net.topology import MachineParams
from repro.net.transport import (
    Message,
    Network,
    PeerFailedError,
    RetryExhaustedError,
)
from repro.sim.engine import Simulator
from repro.sim.tasks import Future
from repro.sim.trace import Stats


def make_params(n, **kwargs):
    defaults = dict(
        n_images=n, wire_latency=1e-6, self_latency=1e-7,
        bandwidth=1e9, o_send=1e-7, o_recv=1e-7,
    )
    defaults.update(kwargs)
    return MachineParams(**defaults)


def make_net(n=4, faults=None, **kwargs):
    sim = Simulator()
    return sim, Network(sim, make_params(n, **kwargs), faults=faults, seed=0)


class Wire:
    """A transport under test: its simulator, each image's end of it
    (``net`` is image 0's, the sender in these tests), every message
    whose deliver callback ran anywhere, and the frames the conduit
    carried per destination (none over the simulated wire)."""

    def __init__(self, sim, ends, delivered, frames=()):
        self.sim = sim
        self.ends = ends
        self.net = ends[0]
        self.delivered = delivered
        self.frames = frames


def message(wire, dst, payload=None):
    """A 100-byte message from image 0 that reports its own delivery."""
    return Message(0, dst, 100, payload, on_deliver=wire.delivered.append)


def network_wire(n=4):
    sim, net = make_net(n)
    return Wire(sim, [net] * n, [])


def conduit_wire(n=4):
    """``n`` ProcessTransports on one Simulator.  A conduit ``put`` lands
    in the destination's list-backed inbox and its ``deliver_frame`` runs
    as a simulator event — every line of the conduit transport, no fork."""
    sim = Simulator()
    delivered = []
    frames = [[] for _ in range(n)]
    fleet = []
    # what a transport needs of its machine: something to unpickle
    # against (its scratch holds the wire's codec), and the AM layer's
    # deliver callback
    machine = SimpleNamespace(
        scratch={}, am=SimpleNamespace(_on_deliver=delivered.append))

    class Conduit:
        def __init__(self, rank):
            self.rank = rank

        def put(self, dst, item):
            frames[dst].append(item)
            sim.call_soon(fleet[dst].deliver_frame, item)

    for rank in range(n):
        fleet.append(ProcessTransport(sim, make_params(n), Stats(),
                                      Conduit(rank), machine))
    return Wire(sim, fleet, delivered, frames)


class TestSendContract:
    wire = staticmethod(network_wire)

    @pytest.mark.parametrize("want_ack", [False, True])
    def test_send_returns_the_message_it_was_given(self, want_ack):
        """One record per message: the sender observes its send through
        the message itself — ``injected`` always, ``delivered`` only
        when an ack was asked for."""
        w = self.wire()
        msg = message(w, 1)
        assert w.net.send(msg, want_ack=want_ack) is msg
        assert isinstance(msg.injected, Future)
        assert (msg.delivered is not None) is want_ack
        w.sim.run()
        assert msg.injected.done and w.delivered
        if want_ack:
            assert msg.delivered.done and msg.delivered.exception() is None

    def test_no_ack_means_no_delivered_future(self):
        w = self.wire()
        receipt = w.net.send(message(w, 1))
        assert receipt.delivered is None
        w.sim.run()
        assert len(w.delivered) == 1 and receipt.injected.done

    def test_on_delivery_runs_once_per_arrival_before_the_callback(self):
        w = self.wire()
        seen = []
        for end in w.ends:
            end.on_delivery = lambda src, dst: seen.append(
                (src, dst, len(w.delivered)))
        receipts = [w.net.send(message(w, dst), want_ack=True)
                    for dst in (1, 1, 0)]
        w.sim.run()
        assert sorted(pair[:2] for pair in seen) == [(0, 0), (0, 1), (0, 1)]
        # each arrival: hook first, then that message's own callback
        assert [pair[2] for pair in seen] == [0, 1, 2]
        assert all(r.delivered.done and r.delivered.exception() is None
                   for r in receipts)

    @pytest.mark.parametrize("dst", [-1, 4])
    def test_destination_out_of_range_rejected_before_any_state_changes(
            self, dst):
        """A negative rank must not index the last inbox, and nothing —
        counter, awaiting-ack entry, event — may precede the check."""
        w = self.wire()
        with pytest.raises(ValueError, match="out of range"):
            w.net.send(message(w, dst), want_ack=True)
        assert w.net.stats["net.msgs"] == 0
        assert w.net.diagnostics()["unacked"] == []
        assert w.sim.pending_events == 0
        assert not any(w.frames)


class TestSendContractOverConduit(TestSendContract):
    wire = staticmethod(conduit_wire)


class TestMarkDead:
    def test_delivery_to_dead_image_discarded(self):
        sim, net = make_net()
        delivered = []
        net.send(Message(0, 1, 100, None,
                         on_deliver=lambda m: delivered.append(m)))
        net.mark_dead(1)
        sim.run()
        assert delivered == []
        assert net.stats["net.dead_link_discards"] == 1

    def test_delivery_from_dead_image_discarded(self):
        sim, net = make_net()
        delivered = []
        net.send(Message(0, 1, 100, None,
                         on_deliver=lambda m: delivered.append(m)))
        net.mark_dead(0)
        sim.run()
        assert delivered == []

    def test_inflight_receipt_fails_not_dangles(self):
        """An acked send in flight when the destination dies must
        resolve its delivered future with PeerFailedError — a dangling
        future wedges the sender's finish frame forever."""
        sim, net = make_net()
        receipt = net.send(Message(0, 1, 100, None), want_ack=True)
        net.mark_dead(1)
        sim.run()
        assert receipt.delivered.done
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.peer == 1
        assert exc.suspected is False

    def test_mark_dead_idempotent(self):
        sim, net = make_net()
        net.mark_dead(1)
        net.mark_dead(1)
        assert net.stats["net.images_dead"] == 1


class TestFailFastSend:
    wire = staticmethod(network_wire)

    def test_send_to_dead_image_fails_immediately(self):
        w = self.wire()
        w.net.mark_dead(2)
        receipt = w.net.send(message(w, 2), want_ack=True)
        assert isinstance(receipt.delivered.exception(), PeerFailedError)
        assert receipt.delivered.exception().suspected is False
        w.sim.run()
        assert receipt.injected.done  # local completion still resolves
        assert w.delivered == []

    def test_send_to_confirmed_image_fails_with_suspected_flag(self):
        w = self.wire()
        w.net.confirm_dead(3)
        receipt = w.net.send(message(w, 3), want_ack=True)
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.peer == 3
        assert exc.suspected is True

    def test_loopback_unaffected_by_own_death_flags(self):
        """src == dst never takes the fail-fast path (memory hand-off)."""
        w = self.wire()
        w.net.suspects.add(0)
        w.net.send(message(w, 0))
        w.sim.run()
        assert len(w.delivered) == 1

    @pytest.mark.parametrize("verdict", ["mark_suspect", "confirm_dead"])
    def test_loopback_survives_a_verdict_about_oneself(self, verdict):
        """Membership gossip tells rank r about r too: a worker that
        applies a (wrong) verdict about itself must still be able to
        talk to itself — neither parked nor failed."""
        w = self.wire()
        getattr(w.net, verdict)(0)
        receipt = w.net.send(message(w, 0), want_ack=True)
        assert w.net.diagnostics()["parked"] == {}
        w.sim.run()
        assert len(w.delivered) == 1
        assert receipt.delivered.done
        assert receipt.delivered.exception() is None

    def test_best_effort_send_crosses_to_a_suspect(self):
        """Heartbeats are the probes that can prove a suspicion wrong:
        they must not park."""
        w = self.wire()
        w.net.mark_suspect(1)
        w.net.send(message(w, 1), best_effort=True)
        assert w.net.diagnostics()["parked"] == {}
        w.sim.run()
        assert len(w.delivered) == 1

    def test_reliable_retransmission_parks_on_suspicion(self):
        """A reliably-sent message whose destination becomes suspected
        mid-retry parks at the next timer instead of spinning to the
        retry cap; confirmation then fails it with PeerFailedError."""
        plan = FaultPlan(drop=0.999, seed=1)
        sim, net = make_net(faults=plan, reliable=True, retry_cap=50)
        receipt = net.send(Message(0, 1, 100, None), want_ack=True)
        sim.schedule_at(1e-4, net.mark_suspect, 1)
        sim.schedule_at(2e-4, net.confirm_dead, 1)
        sim.run()
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.suspected is True
        assert net.stats["net.retransmits"] < 50
        assert net.stats["net.quarantined"] == 1


class TestFailFastSendOverConduit(TestFailFastSend):
    wire = staticmethod(conduit_wire)
    # the conduit never drops, so it has no retransmission to park
    test_reliable_retransmission_parks_on_suspicion = None


class TestQuarantine:
    """Sends to merely-suspected peers park instead of failing: flushed
    in order on unsuspect, failed only on confirmation (DESIGN §12)."""

    wire = staticmethod(network_wire)

    def test_parked_send_flushes_on_unsuspect(self):
        w = self.wire()
        w.net.mark_suspect(2)
        receipt = w.net.send(message(w, 2), want_ack=True)
        assert w.net.stats["net.quarantined"] == 1
        w.sim.schedule_at(1e-4, w.net.unmark_suspect, 2)
        w.sim.run()
        assert len(w.delivered) == 1
        assert receipt.delivered.done
        assert receipt.delivered.exception() is None
        assert w.net.stats["net.quarantine_flushed"] == 1

    def test_flush_preserves_fifo_order(self):
        w = self.wire()
        w.net.mark_suspect(1)
        for tag in ("a", "b", "c"):
            w.net.send(message(w, 1, tag))
        w.sim.schedule_at(1e-4, w.net.unmark_suspect, 1)
        w.sim.run()
        assert [m.payload for m in w.delivered] == ["a", "b", "c"]

    def test_overflow_fails_newest_send(self):
        w = self.wire()
        w.net.quarantine_cap = 1
        w.net.mark_suspect(1)
        first = w.net.send(message(w, 1), want_ack=True)
        second = w.net.send(message(w, 1), want_ack=True)
        exc = second.delivered.exception()
        assert isinstance(exc, PeerFailedError) and exc.suspected is True
        assert not first.delivered.done  # the old one is still parked
        assert w.net.stats["net.quarantine_overflow"] == 1

    def test_confirmation_fails_parked_sends(self):
        w = self.wire()
        w.net.mark_suspect(3)
        receipt = w.net.send(message(w, 3), want_ack=True)
        w.net.confirm_dead(3)
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.peer == 3 and exc.suspected is True
        w.sim.run()
        assert receipt.injected.done  # local completion still resolves

    def test_mark_dead_fails_parked_sends_as_crash(self):
        w = self.wire()
        w.net.mark_suspect(3)
        receipt = w.net.send(message(w, 3), want_ack=True)
        w.net.mark_dead(3)
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError) and exc.suspected is False

    def test_confirm_dead_idempotent_and_implies_suspected(self):
        w = self.wire()
        w.net.confirm_dead(1)
        w.net.confirm_dead(1)
        assert 1 in w.net.suspects and 1 in w.net.confirmed

    def test_unconfirm_lifts_the_verdict_and_sends_transmit_again(self):
        """What a ``resurrect`` transition calls; idempotent, and a
        no-op on an image under no verdict."""
        w = self.wire()
        w.net.confirm_dead(1)
        failed = w.net.send(message(w, 1), want_ack=True)
        assert isinstance(failed.delivered.exception(), PeerFailedError)
        w.net.unconfirm(1)
        w.net.unconfirm(1)
        w.net.unconfirm(2)
        assert not w.net.suspects and not w.net.confirmed
        receipt = w.net.send(message(w, 1), want_ack=True)
        w.sim.run()
        assert len(w.delivered) == 1
        assert receipt.delivered.exception() is None
        assert w.net.stats["net.quarantine_flushed"] == 0


class TestQuarantineOverConduit(TestQuarantine):
    wire = staticmethod(conduit_wire)


class TestAcksOutstandingOnTheConduit:
    """What only the conduit has: no timer will ever look at a send that
    was transmitted and is waiting for its ack frame, so the verdict
    itself must fail it — exactly it, with the verdict's flag."""

    @pytest.mark.parametrize("verdict,suspected", [("confirm_dead", True),
                                                   ("mark_dead", False)])
    def test_verdict_fails_exactly_the_awaiting_receipts(self, verdict,
                                                         suspected):
        w = conduit_wire()
        toward = [w.net.send(message(w, 2), want_ack=True) for _ in range(2)]
        other = w.net.send(message(w, 1), want_ack=True)
        unacked = w.net.send(message(w, 2))
        getattr(w.net, verdict)(2)
        for receipt in toward:
            exc = receipt.delivered.exception()
            assert isinstance(exc, PeerFailedError)
            assert exc.peer == 2 and exc.suspected is suspected
        assert w.net.stats["net.peer_failed"] == 2
        assert unacked.delivered is None and not other.delivered.done
        assert w.net.diagnostics()["pending"] == {(0, "msg"): 1}
        w.sim.run()
        # the frames were already on the conduit; a late ack for an
        # abandoned send is ignored, the live peer's resolves its own
        assert other.delivered.exception() is None
        assert w.net.diagnostics()["unacked"] == []


class TestFlappingLinks:
    """Retransmit-abandon and heal-resume paths under flapping links."""

    def test_permanent_down_window_exhausts_retries_with_link_stats(self):
        plan = FaultPlan().flap_link(0, 1, 0.0, down_for=1.0, up_for=1e-9)
        sim, net = make_net(faults=plan, reliable=True, retry_cap=3)
        net.send(Message(0, 1, 100, None), want_ack=True)
        with pytest.raises(RetryExhaustedError) as ei:
            sim.run()
        exc = ei.value
        assert exc.link == (0, 1)
        assert exc.attempts == 3
        assert exc.link_stats[(0, 1)] == 3
        # the original plus all three retries were lost to the window
        assert net.stats["net.link_down_drops"] == 4

    def test_link_heals_mid_backoff_and_resumes(self):
        """A data link down at first transmission recovers during the
        retransmit backoff; the message is delivered exactly once."""
        plan = FaultPlan().flap_link(0, 1, 0.0, down_for=5e-5, up_for=1.0)
        sim, net = make_net(faults=plan, reliable=True, retry_cap=20)
        delivered = []
        receipt = net.send(Message(0, 1, 100, None,
                                   on_deliver=delivered.append),
                           want_ack=True)
        sim.run()
        assert len(delivered) == 1
        assert receipt.delivered.exception() is None
        assert net.stats["net.retransmits"] >= 1

    def test_reverse_link_flap_loses_ack_dedup_holds(self):
        """The ack link flaps: the delivered copy's ack is lost, the
        retransmitted copy is suppressed by rx dedup (the handler runs
        exactly once) and its re-ack completes the send after heal."""
        plan = FaultPlan().flap_link(1, 0, 0.0, down_for=1e-4, up_for=1.0)
        sim, net = make_net(faults=plan, reliable=True, retry_cap=50)
        delivered = []
        receipt = net.send(Message(0, 1, 100, None,
                                   on_deliver=delivered.append),
                           want_ack=True)
        sim.run()
        assert len(delivered) == 1  # rx dedup held through the flap
        assert receipt.delivered.exception() is None
        assert net.stats["net.dups_suppressed"] >= 1
        assert net.stats["net.link_down_drops"] >= 1


class TestRetryExhaustedDiagnostics:
    def test_typed_fields_and_link_stats(self):
        """Regression: RetryExhaustedError must carry the directed link,
        the link seq, the attempt count, and the per-link retransmit
        snapshot (not just a message string)."""
        plan = FaultPlan(drop=0.999, seed=1)
        sim, net = make_net(faults=plan, reliable=True, retry_cap=3)
        net.send(Message(0, 1, 100, None), want_ack=True)
        with pytest.raises(RetryExhaustedError) as ei:
            sim.run()
        exc = ei.value
        assert exc.link == (0, 1)
        assert exc.lseq == 0
        assert exc.attempts == 3
        assert exc.link_stats[(0, 1)] == 3
        assert net.link_retransmits[(0, 1)] == 3

    def test_link_retransmits_tracks_per_link(self):
        plan = FaultPlan().drop_nth("msg", (1, 2))
        sim, net = make_net(faults=plan, reliable=True, retry_cap=10)
        net.send(Message(0, 1, 100, None), want_ack=True)
        net.send(Message(2, 3, 100, None), want_ack=True)
        sim.run()
        # Exactly the two scripted first transmissions were retried.
        assert sum(net.link_retransmits.values()) == 2
        assert set(net.link_retransmits) == {(0, 1), (2, 3)}
