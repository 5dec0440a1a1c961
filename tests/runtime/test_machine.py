"""Tests for Machine assembly and SPMD launch."""

import numpy as np
import pytest

from repro import MachineParams
from repro.runtime.program import DeadlockError, Machine, run_spmd


class TestConstruction:
    def test_defaults(self):
        m = Machine(4)
        assert m.n_images == 4
        assert m.team_world.size == 4
        assert m.params.n_images == 4

    def test_params_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="describe"):
            Machine(4, params=MachineParams.uniform(8))

    def test_flow_credits_wire_up(self):
        m = Machine(2, params=MachineParams.uniform(2, flow_credits=4))
        assert m.credits is not None
        assert m.am.credits is m.credits

    def test_team_interning(self):
        m = Machine(4)
        a = m.intern_team([1, 2])
        b = m.intern_team([1, 2])
        c = m.intern_team([0, 3])
        assert a is b
        assert a is not c
        assert m.team_by_id(a.id) is a

    def test_unknown_team_id(self):
        m = Machine(2)
        with pytest.raises(KeyError):
            m.team_by_id(10**9)


class TestRunSpmd:
    def test_results_in_rank_order(self):
        def kernel(img):
            yield from img.compute((img.rank + 1) * 1e-6)
            return img.rank * 10

        _m, results = run_spmd(kernel, n_images=4)
        assert results == [0, 10, 20, 30]

    def test_args_forwarded(self):
        def kernel(img, base):
            yield from img.barrier()
            return base + img.rank

        _m, results = run_spmd(kernel, n_images=3, args=(100,))
        assert results == [100, 101, 102]

    def test_setup_runs_before_launch(self):
        seen = []

        def setup(m):
            seen.append(m.n_images)
            m.coarray("A", shape=2)

        def kernel(img):
            yield from img.barrier()
            return img.machine.coarray_by_name("A").local_at(img.rank).sum()

        run_spmd(kernel, n_images=2, setup=setup)
        assert seen == [2]

    def test_determinism(self):
        def kernel(img):
            victim = int(img.rng.integers(0, img.nimages))
            yield from img.compute(1e-6)
            v = yield from img.allreduce(victim)
            return v

        _m1, r1 = run_spmd(kernel, n_images=4, seed=42)
        _m2, r2 = run_spmd(kernel, n_images=4, seed=42)
        assert r1 == r2
        _m3, r3 = run_spmd(kernel, n_images=4, seed=43)
        # different seed gives different victim choices (overwhelmingly)
        assert r1 == r2 != r3 or r1 == r2 == r3  # equality allowed but rare

    def test_deadlock_detection(self):
        def kernel(img):
            if img.rank == 0:
                # waits forever: nobody notifies
                ev = img.machine.make_event(name=f"never{img.rank}")
                yield from img.event_wait(ev)
            yield from img.barrier()

        with pytest.raises(DeadlockError, match="main@"):
            run_spmd(kernel, n_images=2)

    def test_kernel_exception_propagates(self):
        def kernel(img):
            yield from img.compute(1e-6)
            raise RuntimeError("user bug")

        with pytest.raises(RuntimeError, match="(?s)user bug.*main@0") as err:
            run_spmd(kernel, n_images=1)
        assert type(err.value) is RuntimeError  # the kernel's own

    def test_busy_accounting(self):
        def kernel(img):
            yield from img.compute(2e-6 * (img.rank + 1))

        m, _ = run_spmd(kernel, n_images=2)
        assert m.busy.busy.tolist() == pytest.approx([2e-6, 4e-6])

    def test_summary(self):
        def kernel(img):
            yield from img.compute(1e-6)
            yield from img.finish_begin()
            yield from img.finish_end()
            yield from img.cofence()

        m, _ = run_spmd(kernel, n_images=4)
        s = m.summary()
        assert s["images"] == 4
        assert s["sim_time"] == m.sim.now > 0
        assert s["finish_blocks"] == 4
        assert s["cofences"] == 4
        assert s["busy_total"] == pytest.approx(4e-6)
        assert s["busy_imbalance"] == pytest.approx(1.0)
        assert s["messages"] > 0


class TestWaitHelpers:
    def test_wait_all(self):
        import numpy as np

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                ops = [img.copy_async(T.ref(1, i), np.float64(i))
                       for i in range(3)]
                yield from img.wait_all(ops)
                assert all(op.global_done.done for op in ops)
            yield from img.barrier()
            return T.local_at(img.rank).tolist()

        m = Machine(2)
        m.coarray("T", shape=3)
        m.launch(kernel)
        results = m.run()
        assert results[1] == [0.0, 1.0, 2.0]

    def test_wait_any_returns_first_index(self):
        import numpy as np

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                slow = img.copy_async(T.ref(1, slice(None)),
                                      np.ones(4096))    # remote, bulky
                fast = img.copy_async(T.ref(0, 0),
                                      np.float64(9))    # local memcpy
                winner = yield from img.wait_any([slow, fast])
                return winner
            yield from img.compute(1e-4)
            return None

        m = Machine(2, params=None)
        m.coarray("T", shape=4096)
        m.launch(kernel)
        results = m.run()
        assert results[0] == 1  # the small copy completed first

    def test_wait_all_empty_is_noop(self):
        def kernel(img):
            yield from img.wait_all([])
            return img.now

        m = Machine(1)
        m.launch(kernel)
        assert m.run() == [0.0]

    def test_wait_any_empty_rejected(self):
        def kernel(img):
            yield from img.wait_any([])

        m = Machine(1)
        m.launch(kernel)
        with pytest.raises(ValueError, match="no operations"):
            m.run()


class TestEventPosting:
    def test_post_event_local_is_immediate(self):
        m = Machine(2)
        ev = m.make_event(name="e")
        m.post_event(ev, 0, from_rank=0)
        assert ev.count_at(0) == 1

    def test_post_event_remote_travels(self):
        m = Machine(2)
        ev = m.make_event(name="e")
        m.post_event(ev, 1, from_rank=0)
        assert ev.count_at(1) == 0  # not yet delivered
        m.sim.run()
        assert ev.count_at(1) == 1

    def test_when_event_local(self):
        m = Machine(2)
        ev = m.make_event(name="e")
        fired = []
        m.when_event(ev.ref_for(0), initiator=0, action=lambda: fired.append(m.sim.now))
        m.sim.schedule(3e-6, ev.post, 0)
        m.sim.run()
        assert fired == [pytest.approx(3e-6)]

    def test_when_event_remote_round_trips(self):
        m = Machine(2)
        ev = m.make_event(name="e")
        fired = []
        m.when_event(ev.ref_for(1), initiator=0, action=lambda: fired.append(m.sim.now))
        m.sim.schedule(1e-6, ev.post, 1)
        m.sim.run()
        # action fires at the initiator after the notify hop back
        assert fired and fired[0] > 1e-6 + m.params.topology.latency(1, 0)
