"""Fuzzing-service tests: config validation, determinism and the
pinned trajectory, finding verification/persistence, and the committed
findings artifact (which must keep replaying as the engine evolves)."""

import os

import pytest

from repro.apps.ordering_bug import make_ordering_bug_target
from repro.apps.recovery_bug import make_recovery_bug_target
from repro.explore import Schedule, check_replay_determinism
from repro.explore.fuzz import FuzzConfig, FuzzService

COMMITTED_FINDING = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "findings",
    "invariant-f8d9bad3cbfc.json")


@pytest.mark.parametrize("field,value", [
    ("sync_every", 0), ("lag_steps", 0), ("lag_steps", -1),
    ("budget", -1), ("minimize_budget", -1)])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        FuzzConfig(**{field: value})


class TestInlineService:
    def _run(self, **overrides):
        kwargs = dict(budget=200, seed=0, sync_every=25,
                      max_findings=1, minimize_budget=120)
        kwargs.update(overrides)
        return FuzzService(make_ordering_bug_target(),
                           FuzzConfig(**kwargs)).run()

    def test_finds_ordering_bug_verified(self):
        report = self._run()
        assert report.found
        finding = report.findings[0]
        assert finding.kind == "invariant"
        assert finding.verified
        assert finding.minimized.nonzero_choices() <= 3
        assert report.schedules_run <= 200
        assert report.corpus_size > 0
        assert report.coverage_features > 0

    def test_deterministic_for_a_seed(self):
        a, b = self._run(), self._run()
        assert a.schedules_run == b.schedules_run
        assert ([f.fingerprint for f in a.findings]
                == [f.fingerprint for f in b.findings])
        assert a.first_find_at == b.first_find_at

    def test_max_findings_caps_collection(self):
        report = self._run(max_findings=1, budget=300)
        assert len(report.findings) == 1

    @pytest.mark.parametrize("make_target,config,pinned", [
        (make_ordering_bug_target,
         dict(budget=200, seed=0, sync_every=25, max_findings=1,
              minimize_budget=120),
         (25, 1, 21, 116, "97a5bc8d4cd7")),
        (make_recovery_bug_target,
         dict(budget=1500, seed=0, lag_steps=4, max_findings=1,
              minimize_budget=300, sync_every=10),
         (50, 46, 46, 529, "c87c1e89bc78")),
    ], ids=["ordering_bug", "recovery_bug"])
    def test_pinned_trajectory(self, make_target, config, pinned):
        """The seeded search path, fixed across versions of the code:
        a change to the loop, the mutators or the coverage features
        that moves the trajectory shows up here."""
        report = FuzzService(make_target(), FuzzConfig(**config)).run()
        assert (report.schedules_run, report.first_find_at,
                report.corpus_size, report.coverage_features,
                report.findings[0].fingerprint[:12]) == pinned

    def test_findings_persist_and_replay_from_disk(self, tmp_path):
        findings_dir = str(tmp_path / "findings")
        target = make_ordering_bug_target()
        report = FuzzService(
            target,
            FuzzConfig(budget=200, seed=0, max_findings=1,
                       minimize_budget=120),
            findings_dir=findings_dir).run()
        assert report.found
        path = report.findings[0].path
        assert path and os.path.exists(path)
        loaded = Schedule.load(path)
        # the artifact embeds everything replay needs (ordering_bug has
        # no fault menus, so its fault plan is legitimately absent)
        assert loaded.outcome["kind"] == "invariant"
        assert loaded.lag_steps >= 2
        assert check_replay_determinism(target, loaded, times=2)


class TestCommittedFinding:
    """The repo ships one recovery-bug finding produced by the service;
    it must replay bit-identically from its JSON alone."""

    def test_replays_and_reproduces_the_failure(self):
        schedule = Schedule.load(COMMITTED_FINDING)
        assert schedule.outcome["kind"] == "invariant"
        # minimization carried the replay metadata onto the artifact
        assert schedule.fault_plan["crash_choices"]
        assert schedule.lag_steps == 4
        target = make_recovery_bug_target()
        assert check_replay_determinism(target, schedule, times=2)
        outcome = target(schedule.source(strict=True))
        assert outcome.failed and outcome.kind == "invariant"
        assert "double-counted" in outcome.message
