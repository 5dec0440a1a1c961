"""Tests for function shipping (paper §II-C.2)."""

import numpy as np
import pytest

from repro.core.spawn import payload_size, SPAWN_HEADER_BYTES, REF_BYTES
from repro.net.active_messages import AMSizeError
from repro.runtime.program import Machine
from repro.sim.tasks import TaskFailed


class TestPayloadSize:
    def test_header_only(self):
        assert payload_size(()) == SPAWN_HEADER_BYTES

    def test_value_args_charged_by_size(self):
        assert payload_size((np.zeros(4),)) == SPAWN_HEADER_BYTES + 32
        assert payload_size((1, 2.0)) == SPAWN_HEADER_BYTES + 16

    def test_refs_charged_as_descriptors(self):
        from repro.runtime.program import Machine
        m = Machine(2)
        A = m.coarray("A", shape=64)
        ev = m.make_event()
        assert payload_size((A.ref(1),)) == SPAWN_HEADER_BYTES + REF_BYTES
        assert payload_size((ev,)) == SPAWN_HEADER_BYTES + REF_BYTES
        assert payload_size((m.team_world,)) == SPAWN_HEADER_BYTES + REF_BYTES


class TestExecution:
    def test_runs_on_target_with_target_rank(self, spmd):
        where = []

        def remote(img, sender):
            where.append((sender, img.rank))
            yield from img.compute(1e-6)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 2, img.rank)
            yield from img.finish_end()

        spmd(kernel, n=3)
        assert where == [(0, 2)]

    def test_value_args_are_copied(self, spmd):
        """Mutating the caller's array after spawn must not affect the
        shipped value (the paper: arrays/scalars are copied)."""
        seen = []

        def remote(img, arr):
            yield from img.compute(1e-6)
            seen.append(arr.tolist())

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                data = np.array([1.0, 2.0])
                yield from img.spawn(remote, 1, data)
            yield from img.finish_end()

        spmd(kernel, n=2)
        assert seen == [[1.0, 2.0]]

    def test_coarray_ref_is_by_reference(self, spmd):
        """A coarray section argument gives the shipped function access
        to the section where it lives (Fig. 3 pattern)."""

        def remote(img, section):
            # runs on image 1, manipulating image 1's section in place
            section.coarray.local_at(img.rank)[section.index] += 10
            yield from img.compute(1e-7)

        def setup(m):
            m.coarray("A", shape=4)

        def kernel(img):
            A = img.machine.coarray_by_name("A")
            A.local_at(img.rank)[:] = img.rank
            yield from img.barrier()
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1, A.ref(1, slice(0, 2)))
            yield from img.finish_end()
            return A.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=setup)
        assert results[1] == [11.0, 11.0, 1.0, 1.0]

    def test_completion_event(self, spmd):
        def remote(img):
            yield from img.compute(5e-6)

        def setup(m):
            m.make_event(name="done")

        def kernel(img):
            ev = img.machine.event_by_name("done")
            if img.rank == 0:
                op = yield from img.spawn(remote, 1, event=ev)
                yield from img.event_wait(ev)
                # execution completion implies delivery long since done
                assert op.local_op.done
                return img.now
            yield from img.compute(1e-6)
            return None

        _m, results = spmd(kernel, n=2, setup=setup)
        # wait covers ship + 5us execution + notify hop
        assert results[0] > 5e-6

    def test_failure_outside_any_finish_ends_the_run_at_once(self):
        """No finish governs an explicitly completed function: its
        exception ends the run as a main program's does, noted with
        the function's activation, long before image 1's main returns."""

        def remote(img):
            yield from img.compute(1e-6)
            raise ValueError("explicitly completed bug")

        def kernel(img):
            ev = img.machine.event_by_name("done")
            if img.rank == 0:
                yield from img.spawn(remote, 1, event=ev)
                yield from img.event_wait(ev)
            else:
                yield from img.compute(1.0)

        machine = Machine(2)
        machine.make_event(name="done")
        machine.launch(kernel)
        with pytest.raises(ValueError, match="remote@1"):
            machine.run()
        assert machine.sim.now < 1e-3

    def test_transitive_spawn_chain_runs_everywhere(self, spmd):
        visits = []

        def hop(img, remaining):
            visits.append(img.rank)
            yield from img.compute(1e-6)
            if remaining > 0:
                yield from img.spawn(hop, (img.team_rank() + 1) % img.nimages,
                                     remaining - 1)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(hop, 1, 4)
            yield from img.finish_end()

        spmd(kernel, n=3)
        assert visits == [1, 2, 0, 1, 2]

    def test_non_generator_function_rejected(self, spmd):
        def kernel(img):
            with pytest.raises(TypeError, match="generator"):
                yield from img.spawn(lambda img2: None, 0)
            yield from img.barrier()

        spmd(kernel, n=1)

    def test_payload_exceeding_medium_cap_rejected(self, spmd):
        """Spawns travel as medium AMs: the paper's 9-item steal limit."""

        def remote(img, blob):
            yield from img.compute(1e-7)

        def kernel(img):
            big = np.zeros(1024)  # 8KB >> am_medium_max
            with pytest.raises(AMSizeError):
                yield from img.spawn(remote, 0, big)
            yield from img.barrier()

        spmd(kernel, n=1)

    def test_spawn_team_relative_target(self, spmd):
        where = []

        def remote(img):
            where.append(img.rank)
            yield from img.compute(1e-7)

        def kernel(img):
            sub = yield from img.team_split(img.team_world,
                                            color=img.rank % 2,
                                            key=img.rank)
            yield from img.finish_begin()
            if img.rank == 1:
                # team rank 1 of the odd team is world rank 3
                yield from img.spawn(remote, 1, team=sub)
            yield from img.finish_end()

        spmd(kernel, n=4)
        assert where == [3]

    def test_finish_inside_shipped_function_rejected(self, spmd):
        failures = []

        def remote(img):
            try:
                yield from img.finish_begin()
            except Exception as e:
                failures.append(type(e).__name__)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1)
            yield from img.finish_end()

        spmd(kernel, n=2)
        assert failures == ["FinishUsageError"]

    def test_spawn_stats(self, spmd):
        def remote(img):
            yield from img.compute(1e-7)

        def kernel(img):
            yield from img.finish_begin()
            yield from img.spawn(remote, (img.rank + 1) % img.nimages)
            yield from img.finish_end()

        m, _ = spmd(kernel, n=4)
        assert m.stats["spawn.initiated"] == 4
        assert m.stats["spawn.executed"] == 4
