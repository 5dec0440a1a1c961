"""The one engine behind the blocking and the asynchronous team
collectives (DESIGN.md, "The collective engine"): every collective gives the
same result blocking, implicit inside ``finish`` and with explicit
events; handles resolve all their points; records are dropped; a stalled
instance is named; and there is structurally one implementation."""

import inspect

import numpy as np
import pytest

from repro import FaultPlan, LivenessError, MachineParams, run_spmd
from repro.core import collectives, collectives_algos, collectives_async
from repro.net.active_messages import AMLayer
from repro.runtime.sizeof import sizeof

ROOTED = ("broadcast", "reduce", "gather", "scatter")
UNROOTED = ("allreduce", "barrier", "allgather", "alltoall", "scan", "sort")


def _call_args(img, team, name, root):
    """Positional and keyword arguments of collective ``name`` for this
    image (fresh buffers on every call)."""
    me = team.rank_of(img.rank)
    v = float(3 * img.rank + 1)
    kwargs = {"team": team}
    if name in ROOTED:
        kwargs["root"] = root
    if name == "barrier":
        return (), kwargs
    if name == "broadcast":
        return (np.full(3, v),), kwargs
    if name == "scatter":
        values = [v + j for j in range(team.size)] if me == root else None
        return (values,), kwargs
    if name == "alltoall":
        return ([(me, j) for j in range(team.size)],), kwargs
    if name == "sort":
        return (np.array([v, -v]),), kwargs
    return (v,), kwargs


def _norm(name, value):
    if name == "barrier":
        return None          # a barrier has no value of its own
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _events(m):
    m.make_event(name="srcE")
    m.make_event(name="localE")


class TestDifferential:
    @pytest.mark.parametrize("split", [False, True],
                             ids=["world", "subteam"])
    @pytest.mark.parametrize("name", ROOTED + UNROOTED)
    def test_blocking_implicit_and_explicit_agree(self, spmd, name, split):
        """Non-zero root; with ``split`` two parity sub-teams run the
        collective side by side under one world-team finish."""
        root = 1

        def kernel(img):
            src = img.machine.event_by_name("srcE")
            loc = img.machine.event_by_name("localE")
            team = img.team_world
            if split:
                team = yield from img.team_split(team, color=img.rank % 2,
                                                 key=0)
            frames = img.machine.image_state(img.rank).finish_stack

            args, kwargs = _call_args(img, team, name, root)
            blocking = yield from getattr(img, name)(*args, **kwargs)

            start = getattr(img, name + "_async")
            args, kwargs = _call_args(img, team, name, root)
            yield from img.finish_begin()
            frame = frames[-1]
            op = start(*args, **kwargs)
            yield from img.finish_end()
            assert op.local_op.done and op.global_done.done
            implicit = op.local_data.result()
            counted = frame.c_sent + frame.c_received

            args, kwargs = _call_args(img, team, name, root)
            yield from img.finish_begin()
            frame = frames[-1]
            op = start(*args, **kwargs, src_event=src, local_event=loc)
            yield from img.event_wait(src)
            yield from img.event_wait(loc)
            assert op.local_op.done
            explicit = op.local_data.result()
            uncounted = frame.c_sent + frame.c_received
            yield from img.finish_end()
            return (_norm(name, blocking), _norm(name, implicit),
                    _norm(name, explicit), counted, uncounted)

        machine, results = spmd(kernel, n=6, setup=_events)
        for blocking, implicit, explicit, counted, uncounted in results:
            assert blocking == implicit == explicit
            # every member sends or receives at least one tree message
            assert counted > 0
            # explicit events manage their own completion (§III)
            assert uncounted == 0
        if name not in ("barrier", "reduce", "gather"):
            assert all(r[0] is not None for r in results)
        assert machine._coll_states == {}

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_elementwise_operators_agree(self, spmd, op):
        """One operator table: ``max``/``min`` act elementwise on arrays
        in the tree rows and give the ring's result."""
        def kernel(img):
            def contribution():
                return np.array([img.rank, -img.rank, 2.0, img.rank % 3])

            tree = yield from img.allreduce(contribution(), op=op)
            out = np.zeros(4)
            yield from img.wait_all(
                [img.allreduce_async(contribution(), result_buf=out, op=op)])
            ring = yield from img.ring_allreduce(contribution(), op=op)
            return tree.tolist(), out.tolist(), ring.tolist()

        _m, results = spmd(kernel, n=5)
        pick = max if op == "max" else min
        expected = [pick(range(5)), pick(range(0, -5, -1)), 2.0,
                    pick(r % 3 for r in range(5))]
        assert results == [(expected, expected, expected)] * 5


class TestWireSize:
    """A tree value is sized once, where it is made, and forwarded with
    the size it arrived with: every engine message — ``coll.up``,
    ``coll.down`` and ``coll.pair`` — still charges exactly ``sizeof`` of
    its payload."""

    def test_every_tree_message_weighs_its_payload(self, spmd, monkeypatch):
        sent = []
        request_nb = AMLayer.request_nb

        def recording(self, src, dst, handler, *args, **kwargs):
            if handler in ("coll.up", "coll.down", "coll.pair"):
                sent.append((handler, kwargs["payload_size"],
                             sizeof(kwargs["payload"])))
            return request_nb(self, src, dst, handler, *args, **kwargs)

        monkeypatch.setattr(AMLayer, "request_nb", recording)
        root = 3

        def kernel(img):
            # A 7-image team whose ranks are not the world's (image 0
            # sits out); members arrive staggered, so some trees reach an
            # image ahead of its own call and are forwarded from there.
            team = yield from img.team_split(img.team_world,
                                             color=int(img.rank == 0), key=0)
            if img.rank == 0:
                return None
            me = team.rank_of(img.rank)
            out = []
            for name in ROOTED + UNROOTED:
                yield from img.compute(1e-6 * me)
                args, kwargs = _call_args(img, team, name, root)
                out.append(_norm(name, (
                    yield from getattr(img, name)(*args, **kwargs))))
                yield from img.finish_begin(team=team)
                yield from img.compute(1e-6 * (team.size - me))
                args, kwargs = _call_args(img, team, name, root)
                op = getattr(img, name + "_async")(*args, **kwargs)
                yield from img.finish_end()
                out.append(_norm(name, op.local_data.result()))
            yield from img.compute(1e-6 * me)
            sub = yield from img.team_split(team, color=me % 2, key=-me)
            out.append(list(sub.members))
            return out

        machine, results = spmd(kernel, n=8)
        assert results[3][-1] == [7, 5, 3, 1]
        assert [r[2 * ROOTED.index("scatter")] for r in results[1:]] == [
            13.0 + j for j in range(7)]
        # 217 up and 217 down tree messages, and the two alltoalls'
        # 2 x 7 x 6 direct pair messages
        assert len(sent) == 518
        assert sum(h == "coll.pair" for h, *_ in sent) == 84
        assert all(size == weight for _h, size, weight in sent), [
            s for s in sent if s[1] != s[2]]
        # recorded while every tree message was sized on its own
        assert machine.stats["net.bytes"] == 19952
        assert machine.sim.now.hex() == "0x1.769a75937e431p-12"
        assert machine._coll_states == {}

    def test_alltoall_moves_each_entry_once(self, spmd):
        """A direct exchange: p(p-1) one-word messages and nothing else."""
        def kernel(img):
            return (yield from img.alltoall(
                [100 * img.rank + j for j in range(64)]))

        machine, results = spmd(kernel, n=64)
        assert results[5] == [100 * i + 5 for i in range(64)]
        assert machine.stats["net.bytes"] == 64 * 63 * 8


class TestHandlesResolveEveryPoint:
    """Regression: ``wait_all``/``wait_any`` on the staged collectives
    used to deadlock — ``global_done`` was never resolved."""

    STARTS = {
        "broadcast": lambda img: img.broadcast_async(
            np.full(4, float(img.rank == 0))),
        "reduce": lambda img: img.reduce_async(1.0, recvbuf=np.zeros(1)),
        "allreduce": lambda img: img.allreduce_async(
            1.0, result_buf=np.zeros(1)),
        "barrier": lambda img: img.barrier_async(),
    }

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_wait_all(self, spmd, name):
        def kernel(img):
            op = self.STARTS[name](img)
            yield from img.wait_all([op])
            return op.local_data.done and op.local_op.done

        _m, results = spmd(kernel, n=4)
        assert results == [True] * 4

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_wait_any(self, spmd, name):
        def kernel(img):
            index = yield from img.wait_any([self.STARTS[name](img)])
            return index

        _m, results = spmd(kernel, n=4)
        assert results == [0] * 4


class TestRecordsAreDropped:
    def test_async_rounds_inside_finish_leave_nothing(self, spmd):
        """Regression: every async instance used to stay in the table,
        pinning its payload arrays."""
        def kernel(img):
            for _ in range(5):
                buf, out = np.zeros(2), np.zeros(1)
                yield from img.finish_begin()
                img.broadcast_async(buf)
                img.allreduce_async(1.0, result_buf=out)
                img.barrier_async()
                yield from img.finish_end()

        machine, _ = spmd(kernel, n=8)
        assert machine._coll_states == {}

    def test_mixed_program_with_early_arrivals(self, spmd):
        """Blocking and async, with the root's data racing ahead of the
        other members' calls (they compute first)."""
        def kernel(img):
            if img.rank != 0:
                yield from img.compute(1e-4)
            buf = np.full(2, float(img.rank == 0))
            op = img.broadcast_async(buf)
            got = yield from img.broadcast("x" if img.rank == 0 else None)
            total = yield from img.allreduce(1)
            yield from img.finish_begin()
            img.gather_async(img.rank, root=2)
            yield from img.finish_end()
            yield op.local_op
            return buf.tolist(), got, total

        machine, results = spmd(kernel, n=5)
        assert results == [([1.0, 1.0], "x", 5)] * 5
        assert machine._coll_states == {}

    def test_rejected_call_allocates_nothing(self, spmd):
        """Membership is checked before the call takes a sequence number
        or a record."""
        def kernel(img):
            sub = img.machine.intern_team([0, 1])
            if img.rank >= 2:
                with pytest.raises(ValueError, match="not in team"):
                    yield from img.broadcast(1, team=sub)
                with pytest.raises(ValueError, match="not in team"):
                    img.broadcast_async(np.zeros(1), team=sub)
                with pytest.raises(ValueError, match="not in team"):
                    yield from img.ring_allreduce(np.ones(2), team=sub)
                with pytest.raises(ValueError, match="not in team"):
                    yield from img.pipelined_broadcast(np.ones(2), team=sub)
            else:
                yield from img.broadcast(1, team=sub)
            yield from img.barrier()
            return img.machine.image_state(img.rank)._coll_seq.get(sub.id, 0)

        machine, results = spmd(kernel, n=4)
        assert results == [1, 1, 0, 0]
        assert machine._coll_states == {}


class TestStallReport:
    def test_async_collective_behind_a_lost_message_is_named(self):
        """Unreliable network, the first ``coll.down`` of a
        ``broadcast_async`` is lost: the watchdog's report names the
        instance on the image that never got its data."""
        def kernel(img):
            buf = np.zeros(2)
            yield from img.finish_begin()
            img.broadcast_async(buf)
            yield from img.finish_end()

        with pytest.raises(LivenessError) as caught:
            run_spmd(kernel, 4, params=MachineParams.uniform(4),
                     faults=FaultPlan().drop_nth("coll.down", 1))
        report = str(caught.value)
        assert "stalled collectives (rank, team, seq)" in report
        # team rank 1 is the root's first child; seq 0 is the broadcast
        assert "(1, 0, 0)" in report

    def test_alltoall_behind_a_lost_pair_message_is_named(self):
        """The first ``coll.pair`` (image 0's entry for image 1) is lost:
        the report names the alltoall — seq 1, after the barrier — on
        image 1, which never got the entry, and on image 0, whose send is
        never acknowledged (seq 2 is finish's own stalled allreduce)."""
        def kernel(img):
            yield from img.barrier()
            yield from img.finish_begin()
            img.alltoall_async([(img.rank, j) for j in range(4)])
            yield from img.finish_end()

        with pytest.raises(LivenessError) as caught:
            run_spmd(kernel, 4, params=MachineParams.uniform(4),
                     faults=FaultPlan().drop_nth("coll.pair", 1))
        report = str(caught.value)
        assert "lost: t=0.000004s coll.pair #5 0->1" in report
        assert ("stalled collectives (rank, team, seq): (0, 0, 1), "
                "(1, 0, 1), (1, 0, 2)") in report


class TestOneImplementation:
    MODULES = (collectives, collectives_async, collectives_algos)

    def test_one_record_class_and_one_handler_pair(self, spmd):
        classes = [cls for mod in self.MODULES
                   for _n, cls in inspect.getmembers(mod, inspect.isclass)
                   if cls.__module__ == mod.__name__
                   and not issubclass(cls, Exception)]
        assert classes == [collectives._Coll]
        assert not hasattr(collectives_async, "register_handlers")
        assert not hasattr(collectives_algos, "register_handlers")

        def kernel(img):
            yield from img.barrier()
            img.allgather_async(img.rank)
            yield from img.finish_begin()
            img.broadcast_async(np.zeros(1))
            yield from img.finish_end()

        machine, _ = spmd(kernel, n=3)
        registered = [name for name in machine.am._handlers
                      if "coll" in name]
        assert sorted(registered) == ["coll.down", "coll.pair", "coll.up"]

    def test_async_module_holds_only_entry_points(self):
        functions = [name for name, fn in inspect.getmembers(
            collectives_async, inspect.isfunction)
            if fn.__module__ == collectives_async.__name__]
        assert sorted(functions) == sorted(
            name + "_async" for name in ROOTED + UNROOTED)
