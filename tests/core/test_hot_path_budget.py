"""Per-message object budget of the spawn and put paths, of the halo
exchange's put → cofence → notify → wait step, and of the blocking
allreduce that finish runs (DESIGN.md §9).

Counts, not timings: one remote implicit spawn (or unpredicated put)
inside a finish, measured in a window where nothing else on the machine
moves, builds one message and one handle — the record its activation
tracks — and, for a spawn, one activation object at the target (the
``Image`` the shipped function runs against), allocates at most the futures its one message needs, looks its
finish frame up at most once per side, and builds no handler closure; a
credit-less spawn is one generator frame on the initiator, and enters the
credit-aware AM request only when flow-control credits are on; a
blocking allreduce gets none of the handle machinery of its async twin;
and a whole run's delivered spawns leave no cycle for the collector.
A completion point nobody listens to costs no event, and one that is
listened to, or read, behaves as an eager event would (DESIGN.md §3.3).
A collective record takes its tree shape from its team and resolves its
team at most once.
"""

import inspect
import sys

import numpy as np
import pytest

from repro import FaultPlan, MachineParams, run_spmd
from repro.apps.randomaccess import RAConfig, _ra_setup, ra_kernel
from repro.apps.uts import TreeParams, UTSConfig, uts_kernel
from repro.core import collectives as coll_mod
from repro.core import copy_async as copy_mod
from repro.core import spawn as spawn_mod
from repro.core.completion import AsyncOp
from repro.net.active_messages import AMLayer
from repro.net.transport import Message, Network
from repro.runtime.image import Image
from repro.runtime.memory_model import Activation
from repro.runtime.program import Machine
from repro.runtime.team import Team
from repro.sim.engine import Simulator
from repro.sim.tasks import Future, Task


class _Counts:
    """Counts calls of the patched functions while ``on`` is set."""

    def __init__(self, monkeypatch):
        self.on = False
        self.seen = {}
        self._monkeypatch = monkeypatch

    def patch_objects(self, owner, label):
        """Count, as ``label``, the distinct objects whose
        ``owner.__init__`` runs while ``on`` is set."""
        original = owner.__init__
        built = self.seen.setdefault(label, {})

        def counting(obj, *args, **kwargs):
            if self.on:
                built[id(obj)] = obj
            original(obj, *args, **kwargs)

        self._monkeypatch.setattr(owner, "__init__", counting)

    def patch(self, owner, attr, label):
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            if self.on:
                self.seen[label] = self.seen.get(label, 0) + 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, attr, counting)

    def patch_events(self):
        """Count, as ``events``, what is scheduled on the simulator for
        anything but a task's continuation (its start, its body's delays,
        its wake-ups — ``tasks`` counts the starts)."""
        for name in ("schedule", "schedule_at", "call_soon",
                     "schedule_reserved"):
            original = getattr(Simulator, name)

            def counting(sim, *args, _original=original):
                if self.on and Task._resume not in [
                        getattr(a, "__func__", None) for a in args]:
                    self.seen["events"] = self.seen.get("events", 0) + 1
                return _original(sim, *args)

            self._monkeypatch.setattr(Simulator, name, counting)

    def __getitem__(self, label):
        seen = self.seen.get(label, 0)
        return len(seen) if isinstance(seen, dict) else seen


@pytest.fixture
def counts(monkeypatch):
    c = _Counts(monkeypatch)
    c.patch(Future, "__init__", "futures")
    c.patch(Task, "__init__", "tasks")
    c.patch(AsyncOp, "__init__", "handles")
    c.patch(Message, "__init__", "messages")
    c.patch(Machine, "get_or_create_frame", "frame_lookups")
    for cls in (Activation, Image):
        c.patch_objects(cls, "activations")
    c.patch(spawn_mod, "register_handlers", "closures")
    c.patch(AMLayer, "request", "credit_requests")
    for name in ("_make_put_handler", "_make_get_req_handler",
                 "_make_data_handler", "_make_fwd_handler",
                 "_make_done_handler"):
        c.patch(copy_mod, name, "closures")
    c.patch_events()
    return c


def _touch(img):
    yield from img.compute(1e-7)


def _one_op_in_a_quiet_window(counts, spmd, issue, params=None):
    """Rank 0 warms the path up once, waits until every other image is
    parked in ``finish_end``, then issues one operation with counting on
    and keeps counting until it has completed on the target.  The
    counted operation's handle is left in ``counts.op``, and the last
    record its activation tracked right after the call in
    ``counts.tracked``."""

    def kernel(img):
        yield from img.finish_begin()
        if img.rank == 0:
            op = yield from issue(img)           # first use: registers
            yield op.global_done
            yield from img.compute(1e-3)         # the others park
            counts.on = True
            op = counts.op = yield from issue(img)
            counts.tracked = img._pending[-1]
            yield op.global_done
            yield from img.compute(1e-4)         # target-side completion
            counts.on = False
        yield from img.finish_end()

    machine, _ = spmd(kernel, n=2, params=params,
                      setup=lambda m: m.coarray("T", shape=8))
    return machine


def _drive_counting_generators(gen, entered: list):
    """Run ``gen`` — which must not block — to its return value,
    appending the code of every generator frame entered meanwhile."""
    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            entered.append(frame.f_code)

    sys.setprofile(profile)
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    finally:
        sys.setprofile(None)
    raise AssertionError("the operation blocked")


def test_remote_implicit_spawn_budget(counts, spmd):
    entered = []

    def issue(img):
        gen = img.spawn(_touch, 1)
        # Image.spawn hands out spawn's own generator, no wrapper
        assert gen.gi_code is spawn_mod.spawn.__code__
        if not counts.on:
            return (yield from gen)
        return _drive_counting_generators(gen, entered)

    machine = _one_op_in_a_quiet_window(counts, spmd, issue)
    assert machine.stats["spawn.executed"] == 2
    # one record per operation and one per message
    assert counts.tracked is counts.op
    assert counts["messages"] == counts["handles"] == 1
    # the message's injected (the handle reads it) + delivered; nobody
    # asks for the handler task's done future
    assert 0 < counts["futures"] <= 2
    # delivery, handler task start and ack; the injection is a clock point
    assert counts["events"] + counts["tasks"] == 3
    # the executed spawn's activation is its Image, one object
    assert counts["activations"] == 1
    # the spawner holds its frame; the exec handler looks its own up once
    assert counts["frame_lookups"] <= 2
    assert counts["closures"] == 0
    # credit-less: one generator frame on the initiator, spawn itself
    assert counts["credit_requests"] == 0
    assert entered == [spawn_mod.spawn.__code__]


def test_spawn_under_credits_takes_the_credit_aware_request(counts, spmd):
    def issue(img):
        return (yield from img.spawn(_touch, 1))

    machine = _one_op_in_a_quiet_window(
        counts, spmd, issue,
        params=MachineParams.uniform(2, flow_credits=1))
    assert machine.stats["spawn.executed"] == 2
    assert counts["credit_requests"] == 1
    assert 0 < counts["futures"] <= 2
    assert counts["frame_lookups"] <= 2


def test_unpredicated_put_budget(counts, spmd):
    def issue(img):
        T = img.machine.coarray_by_name("T")
        return img.copy_async(T.ref(1), np.ones(8))
        yield  # a generator, like the spawn variant

    machine = _one_op_in_a_quiet_window(counts, spmd, issue)
    assert machine.stats["net.kind.copy.put"] == 2
    # one record per operation and one per message
    assert counts.tracked is counts.op
    assert counts["messages"] == counts["handles"] == 1
    # the message's injected + delivered; the put handler runs inline
    assert 0 < counts["futures"] <= 2
    assert counts["frame_lookups"] <= 1
    assert counts["closures"] == 0


def test_halo_step_budget(monkeypatch, spmd):
    """The halo exchange's step — a put, a ``cofence``, an
    ``event_notify`` and an ``event_wait`` whose post is already there —
    in a quiet window: a delivery builds no object (the message is its
    handler's context), the fence and the release each wait on their one
    future itself, the notify builds no ``EventRef`` and the wait parks
    nowhere."""
    from repro.net.active_messages import AMLayer
    from repro.runtime.event import EventRef
    from repro.sim.tasks import Condition

    counts = _Counts(monkeypatch)
    counts.patch(EventRef, "__init__", "event_refs")
    counts.patch(Condition, "wait_until", "parked")
    names = []
    future_init = Future.__init__

    def named_future(fut, name=""):
        if counts.on:
            names.append(name)
        future_init(fut, name)

    monkeypatch.setattr(Future, "__init__", named_future)
    built = []
    on_deliver = AMLayer._on_deliver

    def delivering(am, msg):
        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_name == "__init__":
                built.append(frame.f_code.co_qualname)

        if not counts.on:
            return on_deliver(am, msg)
        sys.setprofile(profile)
        try:
            return on_deliver(am, msg)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(AMLayer, "_on_deliver", delivering)
    log = {}

    def step(img, dest, target):
        img.copy_async(dest, np.ones(8))
        yield from img.cofence()
        yield from img.event_notify(target)
        yield from img.event_wait(img.machine.event_by_name("E"))

    def kernel(img):
        other = 1 - img.rank
        machine = img.machine
        dest = machine.coarray_by_name("T").ref(other)
        target = machine.event_by_name("E").at(other)
        yield from step(img, dest, target)       # first use: registers
        if img.rank == 1:
            yield from img.event_notify(target)  # posted ahead of the wait
            return
        yield from img.compute(1e-3)             # image 1's post lands
        stats = machine.stats
        waited = stats["cofence.waited"]
        counts.on = True
        before = img.now
        yield from step(img, dest, target)
        log["waited"] = stats["cofence.waited"] - waited
        log["blocked"] = img.now > before
        yield from img.compute(1e-4)             # the notify lands
        counts.on = False

    machine, _ = spmd(kernel, n=2, setup=lambda m: (
        m.coarray("T", shape=8), m.make_event(name="E")))
    assert machine.stats["net.kind.copy.put"] == 3
    assert machine.stats["net.kind.event.post"] == 4
    # the fence waited on the put's injection, the notify on its ack
    assert log == {"waited": 1, "blocked": True}
    # the put and the notify were delivered with nothing built for them
    assert built == []
    assert "cofence" not in names and "notify.release" not in names
    assert counts["event_refs"] == 0
    assert counts["parked"] == 0


def test_blocking_allreduce_budget(counts, spmd):
    """Finish's own allreduce: one result future per image — no
    injection future for the two tree sends (one up, one down), no acks,
    no handle, no task."""
    def kernel(img):
        yield from img.allreduce(1)              # first use: registers
        yield from img.compute(1e-3)
        if img.rank == 0:
            counts.on = True
        yield from img.compute(1e-5)
        total = yield from img.allreduce(img.rank + 1)
        yield from img.compute(1e-4)             # the down message lands
        counts.on = False
        return total

    machine, totals = spmd(kernel, n=2)
    assert totals == [3, 3]
    assert machine.stats["net.kind.coll.up"] == 2
    assert machine.stats["net.kind.coll.down"] == 2
    assert 0 < counts["futures"] <= 2
    assert counts["tasks"] == 0
    assert counts["handles"] == 0


def test_clock_points_keep_the_eager_schedule(spmd):
    """The completion-point contract (DESIGN.md §3.3), pinned at the
    values the eager implementation gave, which scheduled an event for
    every injection and every ack.  Events ``before`` and ``after`` sit
    at exactly a put's ``inject_end``, scheduled before and after the
    put: the first reads the injection pending, the second done, and a
    callback attached to the injection before that instant fires
    between the two.  A ``cofence`` right after a put waits; one issued
    at exactly its ``inject_end`` does not.  A send whose injection, or
    whose ack nobody listens to, would have been the run's last event
    leaves ``sim.now`` there."""
    params = MachineParams.uniform(2)
    nbytes = 8 * 8
    service = params.o_send + nbytes / params.bandwidth
    log = []

    def kernel(img):
        if img.rank != 0:
            return
        T = img.machine.coarray_by_name("T")
        sim = img.machine.sim
        for label, watch in (("watched", True), ("read", False)):
            held = []

            def record(name, held=held):
                log.append((name, held[0].local_data.done))

            inject_end = sim.now + service
            sim.schedule_at(inject_end, record, label + ".before")
            op = img.copy_async(T.ref(1), np.ones(8))
            held.append(op)
            if watch:
                op.local_data.add_done_callback(
                    lambda _f, name=label + ".injected": log.append(
                        (name, True)))
            sim.schedule_at(inject_end, record, label + ".after")
            yield op.global_done
        img.copy_async(T.ref(1), np.ones(8))
        yield from img.cofence()
        log.append(("waited", img.machine.stats["cofence.waited"]))
        op = img.copy_async(T.ref(1), np.ones(8))
        yield from img.compute(service)
        yield from img.cofence()
        log.append(("waited", img.machine.stats["cofence.waited"]))
        yield op.global_done

    spmd(kernel, n=2, params=params,
         setup=lambda m: m.coarray("T", shape=8))
    assert log == [("watched.before", False), ("watched.injected", True),
                   ("watched.after", True), ("read.before", False),
                   ("read.after", True), ("waited", 1), ("waited", 1)]

    def last_event(drop: bool, want_ack: bool) -> float:
        sim = Simulator()
        net = Network(sim, params, faults=(
            FaultPlan().drop_nth("msg", 1) if drop else None))
        msg = net.send(Message(0, 1, nbytes, None), want_ack=want_ack)
        sim.run()
        assert msg.injected.done
        assert msg.delivered is None or msg.delivered.done
        return sim.now

    lat = params.wire_latency
    assert last_event(drop=True, want_ack=False) == 0.0 + service
    assert last_event(drop=False, want_ack=True) == (
        0.0 + service + lat + params.o_recv + params.ack_latency_factor * lat)


def _randomaccess_64():
    config = RAConfig(updates_per_image=128)

    def setup(machine):
        machine.scratch["ra.setup_config"] = config
        _ra_setup(machine)

    machine, _ = run_spmd(ra_kernel, 64, args=(config,), setup=setup)
    assert machine.stats["spawn.executed"] == 64 * 128
    return machine


def _uts_64():
    config = UTSConfig(tree=TreeParams(b0=4, max_depth=7, seed=19))
    machine, _ = run_spmd(uts_kernel, 64, args=(config,))
    assert machine.stats["spawn.executed"] > 10_000
    return machine


@pytest.mark.parametrize("run", [_randomaccess_64, _uts_64],
                         ids=["randomaccess", "uts"])
def test_delivered_spawns_leave_no_cycle(cyclic_garbage, run):
    """Every delivered spawn finishes a task; a finished task (and what it
    held: its generator, done future, resume callback) is freed by
    refcount, so the cyclic collector finds nothing left of a whole run
    even with the machine still referenced (DESIGN.md §9.2)."""
    assert cyclic_garbage(run) == []


def test_collective_records_reuse_the_tree_shape(monkeypatch, spmd):
    """After first use, a blocking allreduce and an async broadcast inside
    a finish (with the finish's own allreduce waves) compute no tree
    shape — the team holds it — and a record resolves its team by id at
    most once, when a message builds it, however many messages it gets
    (the local call has the team in hand)."""
    counts = _Counts(monkeypatch)
    for name in ("tree_parent", "tree_children"):
        counts.patch(Team, name, "shapes")
    build = coll_mod._Coll.__init__

    def building(rec, *args):
        if counts.on:
            by = ("by_call" if sys._getframe(1).f_code.co_name == "start"
                  else "by_message")
            counts.seen[by] = counts[by] + 1
        build(rec, *args)

    monkeypatch.setattr(coll_mod._Coll, "__init__", building)
    team_by_id = Machine.team_by_id

    def resolving(machine, team_id):
        if (counts.on and sys._getframe(1).f_globals["__name__"]
                == coll_mod.__name__):
            counts.seen["team_lookups"] = counts["team_lookups"] + 1
        return team_by_id(machine, team_id)

    monkeypatch.setattr(Machine, "team_by_id", resolving)

    def rounds(img):
        total = yield from img.allreduce(img.rank)
        buf = np.full(2, float(img.rank))
        yield from img.finish_begin()
        img.broadcast_async(buf, root=3)
        yield from img.finish_end()
        return total, buf.tolist()

    def kernel(img):
        yield from rounds(img)                   # first use
        yield from img.barrier()
        counts.on = True
        out = yield from rounds(img)
        yield from img.compute(1e-4)
        counts.on = False
        return out

    machine, results = spmd(kernel, n=8)
    assert results == [(28, [3.0, 3.0])] * 8
    assert machine.stats["net.kind.coll.down"] >= 4 * 2 * 7
    # the allreduce, the broadcast and at least one finish wave
    assert counts["by_call"] + counts["by_message"] >= 3 * 8
    assert counts["by_message"] > 0
    assert counts["shapes"] == 0
    assert counts["team_lookups"] <= counts["by_message"]


@pytest.mark.parametrize("name, budget",
                         [("allgather", 7 + 1), ("broadcast", 1)])
def test_tree_values_are_sized_once(monkeypatch, spmd, name, budget):
    """One ``sizeof`` per up-phase message (each combine is a new value)
    and one per down-phase origin: a forwarded down value keeps the size
    it arrived with, instead of being re-walked for every child at every
    hop — an allgather's is p entries."""
    counts = _Counts(monkeypatch)
    counts.patch(coll_mod, "sizeof", "sizeof")
    counts.on = True

    def kernel(img):
        if name == "allgather":
            return (yield from img.allgather(img.rank))
        return (yield from img.broadcast(
            list(range(8)) if img.rank == 0 else None))

    machine, results = spmd(kernel, n=8)
    assert results == [list(range(8))] * 8
    assert machine.stats["net.kind.coll.down"] == 7
    assert counts["sizeof"] <= budget
