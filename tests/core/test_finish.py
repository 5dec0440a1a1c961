"""Tests for the finish construct (paper §III-A)."""

import pickle

import numpy as np
import pytest

from repro.core.finish import Epoch, FinishError, FinishUsageError
from repro.sim.tasks import TaskFailed


class TestEpoch:
    def test_initial_state_quiet(self):
        e = Epoch()
        assert e.locally_quiet()

    def test_quiet_conditions(self):
        e = Epoch()
        e.sent = 2
        assert not e.locally_quiet()
        e.delivered = 2
        assert e.locally_quiet()
        e.received = 1
        assert not e.locally_quiet()
        e.completed = 1
        assert e.locally_quiet()

    def test_fold(self):
        a, b = Epoch(), Epoch()
        b.sent, b.delivered, b.received, b.completed = 1, 2, 3, 4
        a.sent = 10
        a.fold_from(b)
        assert (a.sent, a.delivered, a.received, a.completed) == (11, 2, 3, 4)
        assert (b.sent, b.delivered, b.received, b.completed) == (0, 0, 0, 0)


class TestFinishError:
    def test_end_finish_raises_every_failure_on_its_image(self, spmd):
        """Each image's ``end finish`` raises what its shipped functions
        raised there, in order, the first as the cause; the run ends
        with the first such error."""

        def bad(img, i):
            yield from img.compute(1e-6 * (i + 1))
            raise KeyError(i)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                for i in range(2):
                    yield from img.spawn(bad, 1, i)
            yield from img.finish_end()

        with pytest.raises(FinishError, match="main@1") as caught:
            spmd(kernel, n=3)
        err = caught.value
        assert err.key == (0, 0)
        assert [(name, exc.args) for name, exc in err.errors] == [
            ("bad@1", (0,)), ("bad@1", (1,))]
        assert err.__cause__ is err.errors[0][1]

    def test_crosses_a_pickle_as_itself(self):
        """The process wire pickles it: a cause does not survive that,
        so the arguments carry every name and exception."""
        err = FinishError((0, 3), [("f@1", ValueError("v")),
                                   ("g@1", KeyError("k"))])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is FinishError
        assert str(back) == str(err) == (
            "finish(0, 3): f@1 raised ValueError('v'); "
            "g@1 raised KeyError('k')")
        assert [(name, type(exc), exc.args) for name, exc in back.errors] == [
            ("f@1", ValueError, ("v",)), ("g@1", KeyError, ("k",))]
        assert isinstance(back.__cause__, ValueError)


class TestBasicFinish:
    def test_empty_finish_costs_one_wave(self, spmd):
        def kernel(img):
            yield from img.finish_begin()
            rounds = yield from img.finish_end()
            return rounds

        m, results = spmd(kernel, n=8)
        assert results == [1] * 8  # L=0: a single allreduce suffices

    def test_finish_waits_for_spawned_work(self, spmd):
        done = []

        def remote(img):
            yield from img.compute(1e-5)
            done.append(img.now)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1)
            yield from img.finish_end()
            return img.now

        _m, results = spmd(kernel, n=2)
        assert done and all(t >= done[0] for t in results)

    def test_finish_waits_for_implicit_copies(self, spmd):
        def setup(m):
            m.coarray("T", shape=4)

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.finish_begin()
            if img.rank == 0:
                img.copy_async(T.ref(1), np.full(4, 8.0))
            yield from img.finish_end()
            # global completion: data visible on image 1 right now
            return T.local_at(1).tolist()

        _m, results = spmd(kernel, n=2, setup=setup)
        assert results[0] == [8.0] * 4
        assert results[1] == [8.0] * 4

    def test_explicit_event_ops_not_tracked(self, spmd):
        """Operations with completion events are explicitly synchronized;
        finish does not wait for them (§III)."""

        def setup(m):
            m.coarray("T", shape=4)
            m.make_event(name="e")

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            ev = img.machine.event_by_name("e")
            yield from img.finish_begin()
            frame = img.machine.image_state(img.rank).finish_stack[-1]
            if img.rank == 0:
                img.copy_async(T.ref(1), np.ones(4), dest_event=ev.at(1))
                assert frame.c_sent == 0  # not counted
            rounds = yield from img.finish_end()
            if img.rank == 1:
                yield from img.event_wait(ev)
            return rounds

        spmd(kernel, n=2, setup=setup)

    def test_end_without_begin_rejected(self, spmd):
        def kernel(img):
            with pytest.raises(FinishUsageError, match="without finish"):
                yield from img.finish_end()
            yield from img.barrier()

        spmd(kernel, n=1)

    def test_main_returning_inside_finish_rejected(self, spmd):
        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 1:
                yield from img.finish_begin()
                return
            yield from img.finish_end()

        with pytest.raises(FinishUsageError, match=(
                "image 1: main program returned inside 2 open finish")):
            spmd(kernel, n=2)

    def test_nonmember_team_rejected(self, spmd):
        def kernel(img):
            sub = img.machine.intern_team([0])
            if img.rank == 1:
                with pytest.raises(FinishUsageError, match="does not belong"):
                    yield from img.finish_begin(team=sub)
            yield from img.barrier()

        spmd(kernel, n=2)


class TestNesting:
    def test_nested_finish_blocks(self, spmd):
        def remote(img):
            yield from img.compute(1e-6)

        def kernel(img):
            yield from img.finish_begin()
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1)
            inner = yield from img.finish_end()
            outer = yield from img.finish_end()
            return (inner, outer)

        _m, results = spmd(kernel, n=2)
        assert all(inner >= 1 and outer >= 1 for inner, outer in results)

    def test_nested_team_must_be_subset(self, spmd):
        def kernel(img):
            evens = yield from img.team_split(img.team_world,
                                              color=img.rank % 2,
                                              key=img.rank)
            if img.rank % 2 == 0:
                yield from img.finish_begin(team=evens)
                with pytest.raises(FinishUsageError, match="subset"):
                    yield from img.finish_begin(team=img.team_world)
                yield from img.finish_end()
            yield from img.barrier()

        spmd(kernel, n=4)

    def test_subteam_finish(self, spmd):
        def remote(img):
            yield from img.compute(1e-6)

        def kernel(img):
            evens = yield from img.team_split(img.team_world,
                                              color=img.rank % 2,
                                              key=img.rank)
            if img.rank % 2 == 0:
                yield from img.finish_begin(team=evens)
                yield from img.spawn(remote, (img.team_rank(evens) + 1) % evens.size,
                                     team=evens)
                yield from img.finish_end()
            yield from img.barrier()

        m, _ = spmd(kernel, n=6)
        assert m.stats["spawn.executed"] == 3


class TestTransitiveChains:
    @pytest.mark.parametrize("chain_len", [1, 2, 4, 7])
    def test_theorem1_wave_bound(self, spmd, chain_len):
        """Theorem 1: at most L+1 reduction waves for spawn-chain length L."""

        def hop(img, remaining):
            yield from img.compute(1e-6)
            if remaining > 1:
                yield from img.spawn(hop, (img.team_rank() + 1) % img.nimages,
                                     remaining - 1)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(hop, 1, chain_len)
            rounds = yield from img.finish_end()
            return rounds

        _m, results = spmd(kernel, n=4)
        assert len(set(results)) == 1  # every image agrees on wave count
        assert results[0] <= chain_len + 1

    def test_fanout_spawns_terminate(self, spmd):
        counter = []

        def leaf(img):
            counter.append(img.rank)
            yield from img.compute(1e-7)

        def fan(img, width):
            yield from img.compute(1e-7)
            for i in range(width):
                yield from img.spawn(leaf, i % img.nimages)

        def kernel(img):
            yield from img.finish_begin()
            yield from img.spawn(fan, (img.rank + 1) % img.nimages, 5)
            yield from img.finish_end()
            return len(counter)

        _m, results = spmd(kernel, n=4)
        # at finish exit every image observes all 4*5 leaves done
        assert results == [20] * 4

    def test_all_images_leave_finish_together(self, spmd, fast_params):
        def remote(img):
            yield from img.compute(1e-4)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1)
            yield from img.finish_end()
            return img.now

        _m, results = spmd(kernel, n=4, params=fast_params(4))
        # nobody leaves before the 100us remote work is done
        assert min(results) >= 1e-4


class TestFinishWithCollectives:
    def test_async_collective_inside_finish(self, spmd):
        def kernel(img):
            buf = np.zeros(4)
            if img.rank == 0:
                buf[:] = 7.0
            yield from img.finish_begin()
            img.broadcast_async(buf, root=0)
            yield from img.finish_end()
            return buf.tolist()

        _m, results = spmd(kernel, n=4)
        assert results == [[7.0] * 4] * 4

    def test_collective_team_containment_enforced(self, spmd):
        from repro.core.collectives_async import CollectiveUsageError

        def kernel(img):
            evens = yield from img.team_split(img.team_world,
                                              color=img.rank % 2,
                                              key=img.rank)
            if img.rank % 2 == 0:
                yield from img.finish_begin(team=evens)
                with pytest.raises(CollectiveUsageError, match="subset"):
                    img.broadcast_async(np.zeros(2), root=0,
                                        team=img.team_world)
                yield from img.finish_end()
            yield from img.barrier()

        spmd(kernel, n=4)

    def test_finish_rounds_reported_in_stats(self, spmd):
        def kernel(img):
            yield from img.finish_begin()
            yield from img.finish_end()

        m, _ = spmd(kernel, n=4)
        assert m.stats["finish.blocks"] == 4
        assert m.stats["finish.completed"] == 4
        assert m.stats["finish.rounds_total"] == 4


def _hop(img, depth):
    """A shipped function that ships itself on ``depth`` more times."""
    yield from img.compute(1e-7)
    if depth:
        yield from img.spawn(_hop, (img.rank + 1) % img.nimages, depth - 1)


class TestOneCountedPath:
    def test_every_counted_family_balances(self, spmd, monkeypatch):
        """Every family finish counts — spawn (nested too), put, get and
        remote-to-remote copies (whose handlers send ``copy.data`` and
        ``copy.put`` on), a tree collective and a per-pair one — leaves
        through the one send path and lands through the one arrival
        path: at finish exit every frame has all its sends delivered,
        and the images' sent, received and completed counts sum to the
        same total."""
        from repro.net.active_messages import AMLayer

        families = {"spawn.exec", "copy.put", "copy.get_req", "copy.data",
                    "copy.fwd", "coll.up", "coll.down", "coll.pair"}
        counted, exec_args = set(), []
        request_nb = AMLayer.request_nb

        def recording(am, src, dst, handler, args=(), **kwargs):
            if handler in families and args[-2] is not None:
                counted.add(handler)
            if handler == "spawn.exec":
                exec_args.append(args)
            return request_nb(am, src, dst, handler, args, **kwargs)

        monkeypatch.setattr(AMLayer, "request_nb", recording)

        def kernel(img):
            A = img.machine.coarray_by_name("A")
            B = img.machine.coarray_by_name("B")
            n = img.nimages
            right, left = (img.rank + 1) % n, (img.rank - 1) % n
            got = np.zeros(4)
            frame = yield from img.finish_begin()
            yield from img.spawn(_hop, right, 2)
            img.copy_async(A.ref(right), np.full(4, float(img.rank)))
            img.copy_async(got, A.ref(left))
            img.copy_async(B.ref((img.rank + 2) % n), A.ref(left))
            img.allreduce_async(np.ones(2))
            img.alltoall_async([img.rank * n + j for j in range(n)])
            yield from img.finish_end()
            return frame

        def setup(m):
            m.coarray("A", shape=4)
            m.coarray("B", shape=4)

        machine, frames = spmd(kernel, n=4, setup=setup)
        assert counted == families
        assert machine.stats["spawn.executed"] == 4 * 3
        for frame in frames:
            assert frame.c_sent == frame.c_delivered > 0
        sent, received, completed = (
            sum(getattr(f, "c_" + c) for f in frames)
            for c in ("sent", "received", "completed"))
        assert sent == received == completed
        # tracers read the shipped function from the first argument
        assert exec_args and all(a[0] is _hop for a in exec_args)
