"""End-to-end fail-stop crash scenarios (DESIGN §11): UTS completing
correctly despite a mid-run crash, structured failure reporting when
recovery is off, and deterministic replay of both."""

import pytest

from repro.apps.uts import (
    TreeParams,
    UTSConfig,
    run_uts,
    sequential_tree_size,
)
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
        closed) must not re-execute anything."""
        done_on = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(_mark, 1)
            yield from img.finish_end()

        def _mark(img):
            yield from img.compute(1e-5)
            done_on.append(img.rank)

        m, _ = run_spmd(kernel, 2, faults=FaultPlan().crash_at(1, 1.0),
                        failure_detection=FailureConfig(recover=True))
        assert done_on == [1]
        assert m.stats["spawn.recovered"] == 0
