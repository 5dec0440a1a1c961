"""Same-instant arrivals on one link.

With a serial NIC and nonzero ``o_send`` two messages never finish
injecting at the same instant, but an ``o_send = o_recv = 0`` machine
produces trains of arrivals that share a timestamp.  Each arrival is its
own simulator event (there is no delivery batching): the engine's
(time, seq) order is send order, and the dead-link discard and the
``on_delivery`` hook apply per arrival.  A message's injection is a
clock point (DESIGN.md §3.3), which costs no event.
"""

import pytest

from repro.sim.engine import Simulator
from repro.net.topology import MachineParams
from repro.net.transport import Message, Network, PeerFailedError


def make_net(n=4, **kwargs):
    sim = Simulator()
    defaults = dict(
        n_images=n, wire_latency=1e-6, self_latency=1e-7,
        bandwidth=1e9, o_send=0.0, o_recv=0.0,
    )
    defaults.update(kwargs)
    return sim, Network(sim, MachineParams(**defaults))


def assert_no_per_link_leftovers(net):
    assert net._tx_pending == {}
    assert net.diagnostics()["unacked"] == []
    assert net._quarantine == {}
    assert all(not rx.seen for rx in net._rx_states.values())


@pytest.mark.parametrize("reliable", [False, True])
def test_train_runs_in_send_order_one_event_per_arrival(reliable):
    # Size 0 and no overheads: every message finishes injecting at t=0
    # and arrives at exactly wire_latency.
    sim, net = make_net(reliable=reliable)
    order = []
    arrivals = []
    net.on_delivery = lambda src, dst: arrivals.append((src, dst, sim.now))
    n = 10
    receipts = [net.send(Message(0, 1, 0, tag,
                                 on_deliver=lambda m: order.append(m.payload)),
                         want_ack=True)
                for tag in range(n)]
    sim.run()
    assert order == list(range(n))
    assert arrivals == [(0, 1, pytest.approx(1e-6))] * n
    # one arrival per message, plus the reliable path's ack, and nothing
    # else: the injection, and an unreliable ack nobody listens to, are
    # clock points, and the reliable path's retransmit timers were all
    # cancelled by the acks
    assert sim.events_processed == (2 if reliable else 1) * n
    assert all(r.delivered.done and r.delivered.exception() is None
               for r in receipts)
    assert sim.now == pytest.approx(2e-6)
    assert_no_per_link_leftovers(net)


def test_same_instant_on_different_links_keeps_send_order():
    sim, net = make_net()
    order = []
    for dst in (1, 2, 3):
        for tag in range(3):
            net.send(Message(0, dst, 0, (dst, tag),
                             on_deliver=lambda m: order.append(m.payload)))
    sim.run()
    assert order == [(dst, tag) for dst in (1, 2, 3) for tag in range(3)]
    assert sim.events_processed == 9  # one arrival each


def test_destination_dies_with_copies_in_flight():
    # Three live senders with two copies each in flight toward image 1,
    # plus one copy *from* image 1, when image 1 crashes: every copy is
    # discarded on arrival, and exactly the live senders' receipts fail.
    sim, net = make_net()
    delivered = []
    hook = []
    net.on_delivery = lambda src, dst: hook.append((src, dst))
    toward = [net.send(Message(src, 1, 0, None,
                               on_deliver=delivered.append), want_ack=True)
              for src in (0, 2, 3) for _ in range(2)]
    outbound = net.send(Message(1, 0, 0, None, on_deliver=delivered.append),
                        want_ack=True)
    net.mark_dead(1)
    sim.run()
    assert delivered == [] and hook == []
    assert net.stats["net.dead_link_discards"] == len(toward) + 1
    assert net.stats["net.peer_failed"] == len(toward)
    for receipt in toward:
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.peer == 1 and exc.suspected is False
    # the dead image's own send has no live sender to notify
    assert not outbound.delivered.done
    assert_no_per_link_leftovers(net)


def test_reliable_copies_in_flight_fail_at_their_timer():
    # The reliable path leaves the verdict to the retransmit timer: the
    # discarded arrivals fail nothing themselves, the timers fail all.
    sim, net = make_net(reliable=True)
    receipts = [net.send(Message(0, 1, 0, None), want_ack=True)
                for _ in range(4)]
    net.mark_dead(1)
    sim.run()
    assert net.stats["net.dead_link_discards"] == 4
    assert net.stats["net.peer_failed"] == 4
    assert all(isinstance(r.delivered.exception(), PeerFailedError)
               for r in receipts)
    assert_no_per_link_leftovers(net)

