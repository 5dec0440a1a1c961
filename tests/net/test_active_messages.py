"""Unit tests for the active-message layer."""

from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Task
from repro.net.topology import MachineParams
from repro.net.transport import Network
from repro.net.flowcontrol import CreditManager
from repro.net.active_messages import AMCategory, AMLayer, AMSizeError


def make_am(n=4, credits=None, **kwargs):
    sim = Simulator()
    params = MachineParams.uniform(n, **kwargs)
    net = Network(sim, params)
    cm = CreditManager(sim, credits) if credits else None
    return sim, AMLayer(net, credit_manager=cm)


class TestHandlerDispatch:
    def test_plain_handler_runs_at_destination(self):
        sim, am = make_am()
        seen = []
        am.register("h", lambda ctx, x: seen.append((ctx.dst, ctx.src, x)))
        am.request_nb(0, 2, "h", args=(42,), category=AMCategory.SHORT)
        sim.run()
        assert seen == [(2, 0, 42)]

    def test_generator_handler_becomes_task(self):
        sim, am = make_am()
        seen = []

        def h(ctx, x):
            yield Delay(1.0)
            seen.append((ctx.dst, x, sim.now))

        am.register("h", h)
        am.request_nb(0, 1, "h", args=(7,), category=AMCategory.SHORT)
        sim.run()
        assert len(seen) == 1
        img, x, t = seen[0]
        assert (img, x) == (1, 7)
        assert t > 1.0  # delivery latency + the handler's own delay

    def test_payload_reaches_handler_context(self):
        sim, am = make_am()
        seen = []
        am.register("h", lambda ctx: seen.append(ctx.payload))
        am.request_nb(0, 1, "h", payload=[1, 2, 3], payload_size=24)
        sim.run()
        assert seen == [[1, 2, 3]]

    def test_unknown_handler_rejected_at_send(self):
        _sim, am = make_am()
        with pytest.raises(KeyError):
            am.request_nb(0, 1, "nope")

    def test_duplicate_registration_rejected(self):
        _sim, am = make_am()
        am.register("h", lambda ctx: None)
        with pytest.raises(ValueError):
            am.register("h", lambda ctx: None)

    def test_ensure_registered_is_idempotent(self):
        _sim, am = make_am()
        fn = lambda ctx: None
        am.ensure_registered("h", fn)
        am.ensure_registered("h", lambda ctx: None)  # ignored
        assert am._handlers["h"][0] is fn


class TestSizeRules:
    def test_short_rejects_payload(self):
        _sim, am = make_am()
        am.register("h", lambda ctx: None)
        with pytest.raises(AMSizeError):
            am.request_nb(0, 1, "h", payload_size=8, category=AMCategory.SHORT)

    def test_medium_cap_enforced(self):
        _sim, am = make_am()
        am.register("h", lambda ctx: None)
        cap = am.params.am_medium_max
        am.request_nb(0, 1, "h", payload_size=cap, category=AMCategory.MEDIUM)
        with pytest.raises(AMSizeError):
            am.request_nb(0, 1, "h", payload_size=cap + 1,
                          category=AMCategory.MEDIUM)

    def test_long_is_uncapped(self):
        _sim, am = make_am()
        am.register("h", lambda ctx: None)
        am.request_nb(0, 1, "h", payload_size=10**9, category=AMCategory.LONG)

    def test_category_stats(self):
        sim, am = make_am()
        am.register("h", lambda ctx: None)
        am.request_nb(0, 1, "h", category=AMCategory.SHORT)
        am.request_nb(0, 1, "h", payload_size=10)
        sim.run()
        assert am.network.stats["am.short"] == 1
        assert am.network.stats["am.medium"] == 1


class TestReply:
    def test_round_trip(self):
        sim, am = make_am()
        log = []
        am.register("pong", lambda ctx: log.append(("pong", ctx.dst, sim.now)))

        def ping(ctx):
            log.append(("ping", ctx.dst, sim.now))
            am.request_nb(ctx.dst, ctx.src, "pong",
                          category=AMCategory.SHORT)

        am.register("ping", ping)
        am.request_nb(0, 3, "ping", category=AMCategory.SHORT)
        sim.run()
        assert [e[:2] for e in log] == [("ping", 3), ("pong", 0)]
        assert log[1][2] > log[0][2]


class TestCredits:
    @staticmethod
    def send(am, want_ack=True):
        """What ``request`` sends: a short message 0 -> 1 to handler h."""
        return partial(am.request_nb, 0, 1, "h", category=AMCategory.SHORT,
                       want_ack=want_ack)

    def test_request_blocks_when_credits_exhausted(self):
        sim, am = make_am(credits=1)
        done = []
        am.register("h", lambda ctx: None)

        def sender():
            yield from am.request(0, 1, self.send(am))
            yield from am.request(0, 1, self.send(am))
            done.append(sim.now)

        Task(sim, sender())
        sim.run()
        # Second send had to wait for the first ack (a full round trip),
        # so completion is strictly later than two back-to-back sends.
        assert done and done[0] > 2 * am.params.o_send

    def test_credits_are_returned_on_ack(self):
        sim, am = make_am(credits=2)
        am.register("h", lambda ctx: None)

        def sender():
            for _ in range(6):
                yield from am.request(0, 1, self.send(am))

        Task(sim, sender())
        sim.run()
        assert am.credits.outstanding(0, 1) == 0

    def test_refused_send_returns_its_credit(self):
        """A send the AM layer refuses before it leaves gives its credit
        back at once: the next request does not wait for an ack that
        will never come."""
        sim, am = make_am(credits=1)
        am.register("h", lambda ctx: None)
        caught = []

        def sender():
            try:
                yield from am.request(0, 1, partial(
                    am.request_nb, 0, 1, "h", payload_size=8,
                    category=AMCategory.SHORT, want_ack=True))
            except AMSizeError as exc:
                caught.append(exc)
            caught.append(am.credits.outstanding(0, 1))
            yield from am.request(0, 1, self.send(am))
            caught.append("sent")

        Task(sim, sender())
        sim.run()
        assert [type(c) for c in caught[:1]] == [AMSizeError]
        assert caught[1:] == [0, "sent"]
        assert am.credits.outstanding(0, 1) == 0

    def test_request_without_credit_manager_does_not_ack(self):
        sim, am = make_am()
        am.register("h", lambda ctx: None)
        receipts = []

        def sender():
            r = yield from am.request(0, 1, self.send(am, want_ack=False))
            receipts.append(r)

        Task(sim, sender())
        sim.run()
        assert receipts[0].delivered is None
