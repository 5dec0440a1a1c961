"""End-to-end fail-stop crash scenarios (DESIGN §11): UTS completing
correctly despite a mid-run crash, structured failure reporting when
recovery is off, and deterministic replay of both."""

import numpy as np
import pytest

from repro import MachineParams
from repro.apps.uts import (
    TreeParams,
    UTSConfig,
    run_uts,
    sequential_tree_size,
)
from repro.core import spawn
from repro.net.faults import FaultPlan
from repro.runtime.failure import FailureConfig, ImageFailureError
from repro.runtime.program import run_spmd

TREE = TreeParams(b0=4, max_depth=7, seed=19)
#: crash during initial work sharing: the victim has neither processed
#: nor forwarded work yet, so recovery is exact (DESIGN §11.5)
CRASH_T = 1e-5


def crash_plan(image=2, t=CRASH_T):
    return FaultPlan().crash_at(image, t)


class TestUTSCrashRecovery:
    def test_recovery_reproduces_exact_tree_count(self):
        expected = sequential_tree_size(TREE)
        r = run_uts(4, UTSConfig(tree=TREE), seed=42, faults=crash_plan(),
                    failure_detection=FailureConfig(recover=True))
        assert r.total_nodes == expected
        assert r.failed_images == (2,)
        assert r.nodes_per_image[2] is None  # its memory died with it
        assert r.recovered_spawns > 0

    def test_crash_after_n_sends_also_recovers(self):
        expected = sequential_tree_size(TREE)
        r = run_uts(4, UTSConfig(tree=TREE), seed=42,
                    faults=FaultPlan().crash_after_n_sends(2, 1),
                    failure_detection=FailureConfig(recover=True))
        assert r.total_nodes == expected
        assert r.failed_images == (2,)

    def test_fixed_seed_reproducible(self):
        runs = [run_uts(4, UTSConfig(tree=TREE), seed=42,
                        faults=crash_plan(),
                        failure_detection=FailureConfig(recover=True))
                for _ in range(2)]
        a, b = runs
        assert a.total_nodes == b.total_nodes
        assert a.nodes_per_image == b.nodes_per_image
        assert a.sim_time == b.sim_time
        assert a.recovered_spawns == b.recovered_spawns

    def test_report_only_raises_structured_error_not_hang(self):
        with pytest.raises(ImageFailureError) as ei:
            run_uts(4, UTSConfig(tree=TREE), seed=42, faults=crash_plan(),
                    failure_detection=FailureConfig())
        exc = ei.value
        assert exc.dead == (2,)
        assert exc.detected_at >= CRASH_T
        assert exc.orphans  # the crash orphaned counted sends
        assert exc.epochs   # non-quiet frames were snapshotted

    def test_report_only_error_reproducible(self):
        def capture():
            try:
                run_uts(4, UTSConfig(tree=TREE), seed=42,
                        faults=crash_plan(),
                        failure_detection=FailureConfig())
            except ImageFailureError as exc:
                return (exc.dead, exc.detected_at, exc.orphans)
            return None

        assert capture() == capture() != None


class TestCrashWithoutDetection:
    def test_watchdog_raises_instead_of_hanging(self):
        """No failure detector: the drain-hook watchdog still surfaces a
        structured ImageFailureError when the crash wedges survivors."""

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_remote_work, 1)
            yield from img.finish_end()

        def _remote_work(img):
            yield from img.compute(1e-3)

        with pytest.raises(ImageFailureError) as ei:
            run_spmd(kernel, 2, faults=FaultPlan().crash_at(1, 5e-5))
        assert ei.value.dead == (1,)


class TestRecoveryMechanics:
    def test_lost_spawn_reexecutes_on_surviving_spawner(self):
        done_on = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_mark, 1)
            rounds = yield from img.finish_end()
            return rounds

        def _mark(img):
            yield from img.compute(1e-4)
            done_on.append(img.rank)

        m, rounds = run_spmd(kernel, 2,
                             faults=FaultPlan().crash_at(1, 5e-5),
                             failure_detection=FailureConfig(recover=True))
        assert done_on == [0]  # re-executed locally on the spawner
        assert m.stats["spawn.recovered"] == 1
        assert rounds[0] >= 1 and rounds[1] is None

    def test_spawn_to_already_suspected_peer_reroutes(self):
        done_on = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.compute(2e-3)  # outlive detection
                op = yield from img.spawn(_mark, 1)
                # nothing was sent: the handle comes back fully resolved
                resolved.extend(f.done for f in (
                    op.initiated, op.local_data, op.local_op,
                    op.global_done))
            yield from img.finish_end()

        def _mark(img):
            done_on.append(img.rank)
            yield from img.compute(1e-6)

        resolved = []
        m, _ = run_spmd(kernel, 2, faults=FaultPlan().crash_at(1, 1e-4),
                        failure_detection=FailureConfig(recover=True))
        assert done_on == [0]
        assert m.stats["spawn.rerouted"] == 1
        assert resolved == [True] * 4

    def test_crashed_image_runs_no_finally_of_its_shipped_function(self):
        """Fail-stop halts a shipped function mid-body: neither its own
        ``finally:`` nor the exec handler's (which counts the completion)
        runs on the dead image; the re-execution on the spawner runs
        both."""
        finals = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_guarded, 1)
            yield from img.finish_end()

        def _guarded(img):
            try:
                yield from img.compute(1e-3)
            finally:
                finals.append(img.rank)

        m, _ = run_spmd(kernel, 2, faults=FaultPlan().crash_at(1, 5e-6),
                        failure_detection=FailureConfig(recover=True))
        assert m.stats["spawn.recovered"] == 1
        assert finals == [0]
        dead = [f for (rank, _key), f in m._frames.items() if rank == 1]
        assert [(f.c_received, f.c_completed) for f in dead] == [(1, 0)]

    def test_crash_after_work_done_recovers_nothing(self):
        """A crash after the shipped function completed (and the finish
        closed) must not re-execute anything.  The mains outlive the
        detector's confirmation (3 x timeout after the crash): once every
        main returns, detection stops and nothing is ever confirmed."""
        done_on = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_mark, 1)
            yield from img.finish_end()
            yield from img.compute(1e-2)

        def _mark(img):
            yield from img.compute(1e-5)
            done_on.append(img.rank)

        m, _ = run_spmd(kernel, 2, faults=FaultPlan().crash_at(1, 1e-3),
                        failure_detection=FailureConfig(recover=True))
        assert m.stats["fail.confirmed"] == 1
        assert done_on == [1]
        assert m.stats["spawn.recovered"] == 0
        assert m.stats["spawn.executed"] == 1

    def test_crash_after_finish_reexecutes_no_transitive_work(self):
        """Image 0 ships ``relay`` to 1, which ships ``bump`` to 2; image 1
        dies after the block closed.  Its ledger entry is gone with the
        block, so the cell on image 2 is bumped once."""

        def bump(img):
            yield from img.compute(1e-6)
            img.machine.coarray_by_name("C").local_at(img.rank)[0] += 1

        def relay(img):
            yield from img.spawn(bump, 2)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(relay, 1)
            yield from img.finish_end()
            yield from img.compute(1e-2)

        m, _ = run_spmd(kernel, 3,
                        params=MachineParams.uniform(3, reliable=True),
                        setup=lambda m: m.coarray("C", (1,), dtype=np.int64),
                        faults=FaultPlan().crash_at(1, 1e-3),
                        failure_detection=FailureConfig(recover=True))
        assert m.stats["fail.confirmed"] == 1
        assert m.coarray_by_name("C").local_at(2)[0] == 1
        assert m.stats["spawn.recovered"] == 0
        assert m.stats["spawn.executed"] == 2

    def test_same_ledger_entry_runs_once_per_rank(self):
        """The re-execute step, given one ledger entry twice on the same
        spawner, runs the body once: the frame's executed-id set skips
        the second run."""
        runs = []

        def _mark(img):
            runs.append(img.rank)
            yield from img.compute(1e-6)

        def kernel(img):
            frame = yield from img.finish_begin()
            if img.rank == 0:
                entry = {7: (1, _mark, (), "_mark@1")}
                spawn.reexecute_lost(frame, entry)
                spawn.reexecute_lost(frame, entry)
            yield from img.finish_end()

        m, _ = run_spmd(kernel, 2,
                        failure_detection=FailureConfig(recover=True))
        assert runs == [0]
        assert m.stats["spawn.dedup_skipped"] == 1
        assert m.stats["spawn.executed"] == 1
