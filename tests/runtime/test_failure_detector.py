"""Heartbeat failure detector: configuration, suspicion timing, image
queries, two-level membership (suspected / confirmed / recovered, with
incarnation numbers), and detector shutdown."""

import hashlib

import pytest

from repro.apps.uts import TreeParams, UTSConfig, uts_kernel
from repro.core.finish import stall_report
from repro.net.faults import FaultPlan
from repro.net.transport import Message
from repro.runtime.failure import (FailureConfig, ImageFailureError,
                                   _make_member_handler)
from repro.runtime.program import DeadlockError, Machine, run_spmd
from repro.sim.engine import SimulationError


def idle_kernel(img, cost=2e-3):
    yield from img.compute(cost)
    return img.rank


class TestFailureConfig:
    def test_defaults(self):
        cfg = FailureConfig()
        assert cfg.timeout == pytest.approx(10 * cfg.period)
        assert cfg.recover is False

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError, match="period"):
            FailureConfig(period=0.0)

    def test_rejects_timeout_not_exceeding_period(self):
        with pytest.raises(ValueError, match="timeout"):
            FailureConfig(period=1e-4, timeout=1e-4)


class TestSuspicion:
    def test_crashed_image_suspected_within_timeout(self):
        cfg = FailureConfig(period=5e-5)
        m, _ = run_spmd(idle_kernel, 4, faults=FaultPlan().crash_at(1, 1e-4),
                        failure_detection=cfg)
        assert 1 in m.network.suspects
        assert m.dead_images == {1}
        assert m.stats["fail.suspected"] == 1

    def test_no_false_suspicion_on_clean_run(self):
        m, results = run_spmd(idle_kernel, 4,
                              failure_detection=FailureConfig())
        assert m.network.suspects == set()
        assert results == [0, 1, 2, 3]
        assert m.stats["fail.hb_rounds"] > 0

    def test_detection_time_bounded_by_timeout_plus_period(self):
        """Suspicion lands within one timeout plus one detector period
        of the crash (plus heartbeat delivery slack)."""
        cfg = FailureConfig(period=5e-5)
        crash_t = 1e-4
        m, _ = run_spmd(idle_kernel, 4,
                        faults=FaultPlan().crash_at(1, crash_t),
                        failure_detection=cfg)
        assert 1 in m.network.suspects
        assert m.sim.now >= crash_t + cfg.timeout

    def test_survivor_results_kept_dead_result_none(self):
        m, results = run_spmd(idle_kernel, 4,
                              faults=FaultPlan().crash_at(2, 1e-4),
                              failure_detection=FailureConfig())
        assert results[2] is None
        assert results[0] == 0 and results[1] == 1 and results[3] == 3

    def test_main_finished_before_crash_keeps_result(self):
        """A crash after an image's main completed must not erase the
        result it already produced."""
        m, results = run_spmd(idle_kernel, 4, args=(1e-5,),
                              faults=FaultPlan().crash_at(2, 1.0),
                              failure_detection=FailureConfig())
        assert results == [0, 1, 2, 3]


class TestImageQueries:
    def test_failed_and_alive_images(self):
        seen = {}

        def kernel(img):
            yield from img.compute(2e-3)
            if img.rank == 0:
                seen["failed"] = img.failed_images()
                seen["alive"] = img.alive_images()
                seen["is_failed"] = img.image_failed(1)

        run_spmd(kernel, 4, faults=FaultPlan().crash_at(1, 1e-4),
                 failure_detection=FailureConfig(period=5e-5))
        assert seen["failed"] == [1]
        assert seen["alive"] == [0, 2, 3]
        assert seen["is_failed"] is True

    def test_queries_without_detector_report_nothing(self):
        seen = {}

        def kernel(img):
            if img.rank == 0:
                seen["failed"] = img.failed_images()
                seen["alive"] = img.alive_images()
            yield from img.compute(1e-6)

        run_spmd(kernel, 2)
        assert seen["failed"] == []
        assert seen["alive"] == [0, 1]

    @pytest.mark.parametrize("detection", [None, FailureConfig()],
                             ids=["no-detector", "detector"])
    def test_alive_images_in_world_rank_order(self, detection):
        """On a team whose split keys reverse the world order, the team
        lists its members 3, 2, 1, 0; ``alive_images`` still answers in
        world-rank order, like ``failed_images`` does."""
        seen = {}

        def kernel(img):
            team = yield from img.team_split(img.team_world, 0, -img.rank)
            if img.rank == 0:
                seen["members"] = list(team)
                seen["alive"] = img.alive_images(team)

        run_spmd(kernel, 4, failure_detection=detection)
        assert seen == {"members": [3, 2, 1, 0], "alive": [0, 1, 2, 3]}


class TestDetectorShutdown:
    def test_event_queue_drains_after_mains_finish(self):
        """Detector timers must stop once every surviving main is done,
        or run_spmd would never return; reaching this assert is most of
        the test."""
        m, results = run_spmd(idle_kernel, 4,
                              failure_detection=FailureConfig())
        assert results == [0, 1, 2, 3]
        assert m.stats["fail.detectors"] == 4

    @pytest.mark.parametrize("recover", [False, True])
    def test_a_main_that_raises_ends_the_run_at_once(self, recover):
        """Heartbeats keep the event queue busy, so no drain ever comes:
        the main's own exception must end the run by itself, well inside
        a budget the heartbeats alone would exhaust."""

        def kernel(img):
            yield from img.finish_begin()
            yield from img.compute(1e-6)
            if img.rank == 0:
                raise TypeError("rank 0 bug")
            yield from img.finish_end()

        with pytest.raises(TypeError, match="main@0"):
            run_spmd(kernel, 2, max_events=5_000,
                     failure_detection=FailureConfig(recover=recover))

    def test_detectors_die_with_their_image(self):
        """The dead image's own detector is killed by the crash; only
        survivors keep heartbeating (3 targets per round, not 4)."""
        m, _ = run_spmd(idle_kernel, 4,
                        faults=FaultPlan().crash_at(1, 1e-4),
                        failure_detection=FailureConfig(period=5e-5))
        assert 1 in m.dead_images


class TestTwoLevelMembership:
    """SUSPECTED is revocable, CONFIRMED_DEAD is not; only hard silence
    past ``confirm_timeout`` may confirm (DESIGN §12)."""

    def test_straggler_suspected_then_unsuspected_never_confirmed(self):
        """A ×15 straggler outruns the fixed timeout (one heartbeat gap
        of 15 periods > the 10-period timeout) but never the 30-period
        confirmation window, so the timeout detector flaps — suspect,
        heartbeat lands, unsuspect — without ever confirming."""
        cfg = FailureConfig(period=5e-5)
        plan = FaultPlan().straggle(1, 15.0, degrade_at=2e-4,
                                    recover_at=4e-3)
        m, results = run_spmd(idle_kernel, 4, args=(5e-3,), faults=plan,
                              failure_detection=cfg)
        assert results == [0, 1, 2, 3]          # nobody lost any work
        service = m.failure
        assert m.stats["fail.false_suspected"] >= 1
        assert m.stats["fail.unsuspected"] >= 1
        assert m.stats["fail.confirmed"] == 0
        assert m.stats["fail.false_confirmed"] == 0
        assert service.recovered == {1}
        assert service.incarnations[1] >= 1
        assert service.time_to_unsuspect        # metric accumulated

    def test_phi_accrues_fewer_false_suspicions_than_timeout(self):
        """The phi window adapts to the degraded cadence; the fixed
        timeout flaps on every degraded heartbeat gap."""
        plan = lambda: FaultPlan().straggle(1, 15.0, degrade_at=5e-4)

        m_timeout, _ = run_spmd(idle_kernel, 4, args=(5e-3,),
                                faults=plan(),
                                failure_detection=FailureConfig(
                                    period=5e-5, detector="timeout"))
        m_phi, _ = run_spmd(idle_kernel, 4, args=(5e-3,), faults=plan(),
                            failure_detection=FailureConfig(
                                period=5e-5, detector="phi"))
        false_timeout = m_timeout.stats["fail.false_suspected"]
        false_phi = m_phi.stats["fail.false_suspected"]
        assert false_phi < false_timeout, (false_phi, false_timeout)
        assert m_phi.stats["fail.confirmed"] == 0

    def test_real_crash_is_confirmed_with_incarnation_zero(self):
        cfg = FailureConfig(period=5e-5)
        m, _ = run_spmd(idle_kernel, 4, args=(6e-3,),
                        faults=FaultPlan().crash_at(1, 1e-4),
                        failure_detection=cfg)
        service = m.failure
        assert service.confirmed == {1}
        assert m.stats["fail.confirmed"] == 1
        assert m.stats["fail.false_confirmed"] == 0
        assert service.incarnations[1] == 0     # never came back
        assert service.confirm_latency          # real-crash metric
        assert service.confirm_latency[0] >= cfg.confirm_timeout - cfg.period

    def test_false_confirmation_resurrects_on_heal(self):
        """An asymmetric gray failure — one image's *outbound* links
        down past ``confirm_timeout`` — forces the irreversible verdict
        on a live peer; its first delivery after the links return
        resurrects it with a bumped incarnation."""
        cfg = FailureConfig(period=5e-5, timeout=1.5e-4,
                            confirm_timeout=5e-4)
        plan = FaultPlan()
        for dst in (0, 2, 3):
            # Down 2e-4..1e-3: long enough that the survivors confirm 1
            # (silence > 5e-4), short enough that 1 — which stops being
            # heartbeated the moment it is confirmed — hears the
            # survivors again before *it* would confirm *them*.
            plan.flap_link(1, dst, at=2e-4, down_for=8e-4, up_for=1.0)
        m, results = run_spmd(idle_kernel, 4, args=(5e-3,), faults=plan,
                              failure_detection=cfg)
        assert results == [0, 1, 2, 3]
        service = m.failure
        assert m.stats["fail.false_confirmed"] >= 1
        assert m.stats["fail.resurrected"] >= 1
        assert service.confirmed == set()       # every verdict retracted
        assert 1 in service.recovered
        assert service.incarnations[1] >= 1


class TestMembershipQueries:
    def test_suspected_vs_confirmed_vs_recovered_queries(self):
        """In-kernel view mid-flap: the straggler shows up as recovered
        (with a bumped incarnation) once its first suspicion heals."""
        seen = {}

        def kernel(img):
            yield from img.compute(3e-3)
            if img.rank == 0:
                seen["confirmed"] = img.confirmed_dead_images()
                seen["recovered"] = img.recovered_images()
                seen["incarnation"] = img.image_incarnation(1)

        cfg = FailureConfig(period=5e-5)
        plan = FaultPlan().straggle(1, 15.0, degrade_at=2e-4)
        run_spmd(kernel, 4, faults=plan, failure_detection=cfg)
        assert seen["confirmed"] == []
        assert seen["recovered"] == [1]
        assert seen["incarnation"] >= 1

    def test_confirmed_dead_query_after_real_crash(self):
        seen = {}

        def kernel(img):
            yield from img.compute(6e-3)
            if img.rank == 0:
                seen["confirmed"] = img.confirmed_dead_images()
                seen["suspected"] = img.suspected_images()
                seen["recovered"] = img.recovered_images()

        run_spmd(kernel, 4, faults=FaultPlan().crash_at(2, 1e-4),
                 failure_detection=FailureConfig(period=5e-5))
        assert seen["confirmed"] == [2]
        assert seen["suspected"] == []          # escalated past level one
        assert seen["recovered"] == []

    def test_membership_queries_without_detector(self):
        seen = {}

        def kernel(img):
            if img.rank == 0:
                seen["suspected"] = img.suspected_images()
                seen["confirmed"] = img.confirmed_dead_images()
                seen["recovered"] = img.recovered_images()
                seen["incarnation"] = img.image_incarnation(1)
            yield from img.compute(1e-6)

        run_spmd(kernel, 2)
        assert seen == {"suspected": [], "confirmed": [],
                        "recovered": [], "incarnation": 0}


class TestStallReportMembership:
    def test_report_names_confirmed_dead_images(self):
        m, _ = run_spmd(idle_kernel, 4, args=(6e-3,),
                        faults=FaultPlan().crash_at(1, 1e-4),
                        failure_detection=FailureConfig(period=5e-5))
        report = stall_report(m, [0])
        assert "confirmed dead images: [1]" in report

    def test_report_names_recovered_images_with_incarnations(self):
        cfg = FailureConfig(period=5e-5)
        plan = FaultPlan().straggle(1, 15.0, degrade_at=2e-4)
        m, _ = run_spmd(idle_kernel, 4, args=(3e-3,), faults=plan,
                        failure_detection=cfg)
        report = stall_report(m, [])
        incarnation = m.failure.incarnations[1]
        assert f"recovered images: 1 (incarnation {incarnation})" in report

    def test_report_distinguishes_suspects_and_quarantine(self):
        """Diagnostic formatting: a merely-suspected peer is listed as
        suspected (not dead) together with its parked-send count."""
        m, _ = run_spmd(idle_kernel, 2,
                        failure_detection=FailureConfig())
        m.network.mark_suspect(1)
        for _ in range(3):
            m.network.send(Message(0, 1, 8, None))
        report = stall_report(m, [])
        assert "suspected images: [1]" in report
        assert "quarantined sends per suspect: {1: 3}" in report
        assert "confirmed dead" not in report


class TestKillImage:
    def test_kill_image_idempotent(self):
        m, _ = run_spmd(idle_kernel, 2,
                        faults=FaultPlan().crash_at(1, 1e-4),
                        failure_detection=FailureConfig())
        assert m.stats["fail.crashes"] == 1
        m.kill_image(1)
        assert m.stats["fail.crashes"] == 1

    def test_kill_image_range_checked(self):
        m, _ = run_spmd(idle_kernel, 2,
                        failure_detection=FailureConfig())
        with pytest.raises(ValueError):
            m.kill_image(7)


def _skips_the_barrier(img):
    if img.rank == 0:
        yield from img.barrier()


class TestDeadlockUnderDetector:
    @pytest.mark.xfail(
        strict=True, raises=SimulationError,
        reason="CHANGES.md FOUND line (runtime/program.py with "
               "runtime/failure.py): heartbeats keep the event queue "
               "alive, so the drain hook never sees the deadlock and the "
               "run ends at max_events")
    @pytest.mark.parametrize("config", [FailureConfig(),
                                        FailureConfig(recover=True)],
                             ids=["report", "recover"])
    def test_application_deadlock_raises_deadlock_error(self, config):
        with pytest.raises(DeadlockError):
            run_spmd(_skips_the_barrier, 2, failure_detection=config,
                     max_events=20_000)


def run_digest(machine, results) -> str:
    """sha256 over what a run computed: its stats, its end time, its
    event count and its results."""
    h = hashlib.sha256()
    h.update(repr(sorted(machine.stats.as_dict().items())).encode())
    h.update(machine.sim.now.hex().encode())
    h.update(str(machine.sim.events_processed).encode())
    h.update(repr(results).encode())
    return h.hexdigest()


class TestOneTransition:
    """Every membership change goes through ``FailureService.transition``;
    two runs through all four transitions are pinned bit for bit."""

    @pytest.mark.parametrize("op, setup", [
        ("suspect", ()),
        ("confirm", ()),
        ("unsuspect", ("suspect",)),
        ("resurrect", ("confirm",)),
    ])
    def test_repeated_transition_applies_once(self, op, setup):
        """Applied twice locally and once more as received gossip, a
        transition bumps the generation and its counter once."""
        machine = Machine(4, seed=0, failure_detection=FailureConfig())
        service = machine.failure
        for prior in setup:
            service.transition(prior, 1)
        gen = service.gen
        service.transition(op, 1)
        service.transition(op, 1)
        _make_member_handler(machine)(None, op, 1)
        assert service.gen == gen + 1
        assert machine.stats[f"fail.{op}ed"] == 1

    @pytest.mark.parametrize("op, verdict", [("unsuspect", "suspect"),
                                             ("resurrect", "confirm")])
    def test_no_heal_for_a_dead_image(self, op, verdict):
        """Only a live peer can lift a verdict, e.g. through stale
        gossip about an image that has since crashed."""
        machine = Machine(4, seed=0, failure_detection=FailureConfig())
        service = machine.failure
        machine.kill_image(1)
        service.transition(verdict, 1)
        gen = service.gen
        _make_member_handler(machine)(None, op, 1)
        assert service.gen == gen and 1 in service.suspects
        assert machine.stats[f"fail.{op}ed"] == 0

    def test_all_four_transitions_are_pinned(self):
        """The scenario of ``test_false_confirmation_resurrects_on_heal``:
        suspicions that heal, a false confirmation and its resurrection."""
        cfg = FailureConfig(period=5e-5, timeout=1.5e-4,
                            confirm_timeout=5e-4)
        plan = FaultPlan()
        for dst in (0, 2, 3):
            plan.flap_link(1, dst, at=2e-4, down_for=8e-4, up_for=1.0)
        m, results = run_spmd(idle_kernel, 4, args=(5e-3,), faults=plan,
                              failure_detection=cfg)
        counts = {k: m.stats[f"fail.{k}"] for k in (
            "suspected", "unsuspected", "confirmed", "resurrected")}
        assert counts == {"suspected": 7, "unsuspected": 6,
                          "confirmed": 1, "resurrected": 1}
        assert run_digest(m, results) == (
            "123c0327ca81562fcf7403a15d6d5caca6cabc844c0874a7ce584560790b6c70")

    def test_uts_crash_recovery_is_pinned(self):
        """A crash confirmed and reconciled, its lost spawns re-executed:
        the exact tree count, and the same run bit for bit."""
        tree = TreeParams(b0=4, max_depth=7, seed=19)
        m, results = run_spmd(uts_kernel, 4, args=(UTSConfig(tree=tree),),
                              seed=42, faults=FaultPlan().crash_at(2, 1e-5),
                              failure_detection=FailureConfig(recover=True))
        assert sum(n for n in results if n is not None) == 19438
        assert m.stats["fail.confirmed"] == 1
        assert m.stats["spawn.recovered"] == 2
        assert run_digest(m, results) == (
            "abdceff944d1a3d7a781f3a74d348222387ba270eafb96c98c4c69a3bc59f98b")
