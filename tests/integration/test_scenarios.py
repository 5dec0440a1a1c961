"""Cross-module integration scenarios: realistic programs that compose
several constructs at once."""

import numpy as np
import pytest

from repro import MachineParams, run_spmd


class TestBroadcastDoubleBuffering:
    def test_fig9_pattern(self, spmd):
        """Paper Fig. 9: the broadcast root uses the window between
        local data completion and local operation completion to prepare
        the next round's buffer while participants capture arrival with
        a cofence-equivalent wait."""
        ROUNDS = 4

        def kernel(img):
            received = []
            buf = np.zeros(8)
            for rnd in range(ROUNDS):
                if img.rank == 0:
                    buf[:] = float(rnd)
                    op = img.broadcast_async(buf, root=0)
                    # local data completion: buf reusable immediately
                    yield op.local_data
                    buf[:] = -99.0  # prepare next round early
                    yield op.local_op
                else:
                    op = img.broadcast_async(buf, root=0)
                    yield op.local_data  # arrival
                    received.append(float(buf[0]))
                yield from img.barrier()
            return received

        _m, results = spmd(kernel, n=6)
        for r in range(1, 6):
            assert results[r] == [0.0, 1.0, 2.0, 3.0]

    def test_pipeline_with_cofence_fig8(self, spmd):
        """Paper Fig. 8: a ring pipeline where each stage uses directed
        cofences to overlap its sends and receives."""
        STEPS = 5

        def setup(m):
            m.coarray("ring", shape=STEPS, dtype=np.float64)
            m.make_event(name="step")

        def kernel(img):
            ring = img.machine.coarray_by_name("ring")
            step_ev = img.machine.event_by_name("step")
            succ = (img.rank + 1) % img.nimages
            out = np.zeros(1)
            for i in range(STEPS):
                out[0] = img.rank * 100 + i
                img.copy_async(ring.ref(succ, i), out)
                # WRITE-class ops (none here) may pass; the READ-class
                # send must be locally complete before out is reused.
                yield from img.cofence(downward="write")
                yield from img.event_notify(step_ev.at(succ))
                yield from img.event_wait(step_ev)
            yield from img.barrier()
            return ring.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=4, setup=setup)
        for r in range(4):
            pred = (r - 1) % 4
            assert results[r] == [pred * 100 + i for i in range(STEPS)]


class TestMapReduceStyle:
    def test_spawn_map_then_gather_reduce(self, spmd):
        """Ship map tasks with finish, then tree-reduce the results."""

        def map_task(img, lo, hi):
            part = img.machine.coarray_by_name("partials")
            total = sum(i * i for i in range(lo, hi))
            part.local_at(img.rank)[0] += total
            yield from img.compute((hi - lo) * 1e-8)

        def setup(m):
            m.coarray("partials", shape=1, dtype=np.float64)

        def kernel(img):
            part = img.machine.coarray_by_name("partials")
            N = 1000
            yield from img.finish_begin()
            if img.rank == 0:
                chunk = N // img.nimages
                for t in range(img.nimages):
                    lo = t * chunk
                    hi = N if t == img.nimages - 1 else lo + chunk
                    yield from img.spawn(map_task, t, lo, hi)
            yield from img.finish_end()
            total = yield from img.allreduce(float(part.local_at(img.rank)[0]))
            return total

        _m, results = spmd(kernel, n=5, setup=setup)
        expected = float(sum(i * i for i in range(1000)))
        assert results == [expected] * 5


class TestConcurrentSubteamFinishes:
    def test_disjoint_teams_run_independent_finishes(self, spmd):
        """Two halves of the machine run separate finish blocks with
        separate spawn traffic, concurrently."""

        def work(img, tag):
            box = img.machine.scratch.setdefault("boxes", [])
            box.append((tag, img.rank))
            yield from img.compute(1e-6)

        def kernel(img):
            half = yield from img.team_split(img.team_world,
                                             color=img.rank % 2,
                                             key=img.rank)
            yield from img.finish_begin(team=half)
            partner = (img.team_rank(half) + 1) % half.size
            yield from img.spawn(work, partner, img.rank % 2, team=half)
            yield from img.finish_end()
            yield from img.barrier()
            return sorted(img.machine.scratch["boxes"])

        _m, results = spmd(kernel, n=6)
        boxes = results[0]
        evens = [(t, r) for t, r in boxes if t == 0]
        odds = [(t, r) for t, r in boxes if t == 1]
        assert len(evens) == 3 and all(r % 2 == 0 for _t, r in evens)
        assert len(odds) == 3 and all(r % 2 == 1 for _t, r in odds)

    def test_nested_finish_with_subteam_collective(self, spmd):
        def kernel(img):
            evens = yield from img.team_split(img.team_world,
                                              color=img.rank % 2,
                                              key=img.rank)
            yield from img.finish_begin()              # world finish
            if img.rank % 2 == 0:
                yield from img.finish_begin(team=evens)  # nested, subset
                buf = np.zeros(2)
                if img.team_rank(evens) == 0:
                    buf[:] = 5.0
                img.broadcast_async(buf, root=0, team=evens)
                yield from img.finish_end()
                assert buf.tolist() == [5.0, 5.0]
            yield from img.finish_end()

        spmd(kernel, n=4)


class TestFlowControlAndJitter:
    def test_everything_composes_under_flow_control_and_jitter(self):
        """Smoke the full construct set with flow control and jitter at
        once."""
        n = 16
        params = MachineParams(n, flow_credits=8, jitter=0.3)

        def worker(img):
            yield from img.compute(1e-6)

        def kernel(img):
            yield from img.finish_begin()
            yield from img.spawn(worker, (img.rank + 5) % img.nimages)
            yield from img.finish_end()
            v = yield from img.allreduce(1)
            return v

        _m, results = run_spmd(kernel, n, params=params)
        assert results == [n] * n
