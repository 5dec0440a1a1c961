"""Explorer, minimizer and oracle tests.

The synthetic targets here consume a schedule source directly (no
simulator): a "run" asks a fixed sequence of choice points and fails
according to a rule over the chosen values.  That makes the minimizer's
behaviour exactly checkable.  The integration tests then run the whole
stack against the seeded ordering-bug app.
"""

import pytest

from repro.sim.engine import ChoicePoint
from repro.explore.explorer import (
    Explorer,
    RunOutcome,
    check_replay_determinism,
    make_spmd_target,
    minimize_schedule,
)
from repro.explore.schedule import Schedule
from repro.explore.strategies import (
    DFSStrategy,
    PCTStrategy,
    RandomWalkStrategy,
)


def make_synthetic_target(n_points, fails_when, n=4):
    """A target asking ``n_points`` lag choices; fails iff
    ``fails_when(choices)``."""

    def target(source):
        choices = []
        for i in range(n_points):
            point = ChoicePoint("lag", n, key=f"msg:{i}")
            choices.append(source.choose(point))
        failed = bool(fails_when(choices))
        kind = "invariant" if failed else "ok"
        return RunOutcome(failed=failed, kind=kind,
                          message="synthetic" if failed else "",
                          fingerprint=f"fp:{tuple(choices)}",
                          sim_time=float(sum(choices)))

    return target


class TestExplorer:
    def test_stops_at_first_failure(self):
        # fails whenever the third choice is nonzero
        target = make_synthetic_target(8, lambda c: c[2] != 0)
        explorer = Explorer(target, budget=100, minimize=False)
        report = explorer.run_strategy(RandomWalkStrategy(seed=0))
        assert report.found
        assert report.schedules_run == report.found_at + 1
        assert report.schedule.records[2].choice != 0
        assert report.outcome.kind == "invariant"

    def test_reports_not_found_within_budget(self):
        target = make_synthetic_target(4, lambda c: False)
        explorer = Explorer(target, budget=10, minimize=False)
        report = explorer.run_strategy(RandomWalkStrategy(seed=0))
        assert not report.found
        assert report.schedules_run == 10
        assert report.schedule is None and report.minimized is None

    def test_dfs_exhaustion_ends_search_early(self):
        # one binary branchable point and no bug: baseline + 1 branch
        def target(source):
            source.choose(ChoicePoint("ready", 2, labels=("a", "b")))
            return RunOutcome(False, "ok", "", "fp", 0.0)

        explorer = Explorer(target, budget=100, minimize=False)
        report = explorer.run_strategy(DFSStrategy(max_depth=10))
        assert not report.found
        assert report.schedules_run == 2

    def test_budget_not_counted_as_failure(self):
        def target(source):
            source.choose(ChoicePoint("lag", 3, key="k"))
            return RunOutcome(False, "budget", "max_events", "fp", 0.0)

        report = Explorer(target, budget=5,
                          minimize=False).run_strategy(
                              RandomWalkStrategy(seed=0))
        assert not report.found


class TestMinimizer:
    def test_shrinks_to_single_culprit(self):
        # only index 5 matters; random walks set many others too
        target = make_synthetic_target(12, lambda c: c[5] >= 1)
        report = Explorer(target, budget=50,
                          minimize=False).run_strategy(
                              RandomWalkStrategy(seed=3))
        assert report.found
        minimized = minimize_schedule(target, report.schedule, budget=300)
        assert minimized.nonzero_choices() == 1
        assert minimized.records[5].choice != 0
        assert minimized.outcome["kind"] == "invariant"

    def test_prefix_bisection_drops_tail(self):
        # failing condition only involves the first two choices; the
        # minimized artifact is re-recorded, so the tail comes back as
        # all-zero baseline records
        target = make_synthetic_target(10, lambda c: c[1] != 0)
        report = Explorer(target, budget=50,
                          minimize=False).run_strategy(
                              RandomWalkStrategy(seed=1))
        assert report.found
        minimized = minimize_schedule(target, report.schedule, budget=300)
        assert all(r.choice == 0 for r in minimized.records[2:])
        assert minimized.nonzero_choices() == 1

    def test_conjunction_keeps_both_culprits(self):
        target = make_synthetic_target(
            6, lambda c: c[1] != 0 and c[4] != 0)
        report = Explorer(target, budget=200,
                          minimize=False).run_strategy(
                              RandomWalkStrategy(seed=0))
        assert report.found
        minimized = minimize_schedule(target, report.schedule, budget=300)
        assert minimized.nonzero_choices() == 2
        assert minimized.records[1].choice != 0
        assert minimized.records[4].choice != 0

    def test_minimized_meta_and_verification(self):
        target = make_synthetic_target(8, lambda c: c[0] != 0)
        report = Explorer(target, budget=50,
                          minimize=True,
                          minimize_budget=300).run_strategy(
                              RandomWalkStrategy(seed=0))
        minimized = report.minimized
        assert minimized is not None
        assert minimized.meta["minimized"] is True
        assert minimized.meta["original_len"] == len(report.schedule)
        assert minimized.meta["probes"] > 0
        # strict replay of the artifact reproduces the fingerprint
        assert check_replay_determinism(target, minimized, times=2)

    def test_requires_failing_outcome(self):
        target = make_synthetic_target(3, lambda c: False)
        sched = Schedule([], outcome=None)
        with pytest.raises(ValueError):
            minimize_schedule(target, sched)


class TestReplayDeterminismCheck:
    def test_detects_nondeterministic_target(self):
        flips = iter("abcdef")

        def target(source):
            source.choose(ChoicePoint("lag", 2, key="k"))
            return RunOutcome(False, "ok", "", next(flips), 0.0)

        sched = Schedule(
            [],
            outcome={"fingerprint": "zzz"},
        )
        # fingerprints differ run to run -> not deterministic
        assert not check_replay_determinism(target, sched, times=2)


class TestOrderingBugIntegration:
    """The acceptance path: the seeded bug is found within budget by
    multiple strategies, minimized, and the artifact replays
    bit-identically through JSON."""

    @pytest.fixture(scope="class")
    def target(self):
        from repro.apps.ordering_bug import (
            OrderingBugConfig,
            make_ordering_bug_target,
        )
        return make_ordering_bug_target(config=OrderingBugConfig(rounds=2))

    def test_baseline_schedule_passes(self, target):
        from repro.explore.schedule import DefaultSource
        outcome = target(DefaultSource())
        assert not outcome.failed and outcome.kind == "ok"

    @pytest.mark.parametrize("strategy", [
        RandomWalkStrategy(seed=1),
        PCTStrategy(seed=2),
    ])
    def test_found_minimized_and_replayable(self, target, strategy):
        explorer = Explorer(target, budget=100, minimize=True,
                            minimize_budget=60)
        report = explorer.run_strategy(strategy)
        assert report.found
        assert report.outcome.kind == "invariant"
        minimized = report.minimized
        assert minimized is not None
        assert minimized.nonzero_choices() <= 3
        # JSON round trip preserves bit-identical replay
        loaded = Schedule.from_json(minimized.to_json())
        assert check_replay_determinism(target, loaded, times=2)

    def test_dfs_finds_it_too(self, target):
        explorer = Explorer(target, budget=200, minimize=False)
        report = explorer.run_strategy(DFSStrategy(max_depth=25))
        assert report.found
        assert report.outcome.kind == "invariant"


class TestSpmdTargetOracles:
    def test_task_failure_classified(self):
        def crashing(img):
            raise RuntimeError("boom")
            yield  # pragma: no cover - makes it a generator kernel

        from repro.explore.schedule import DefaultSource
        target = make_spmd_target(crashing, 2)
        outcome = target(DefaultSource())
        assert outcome.failed and outcome.kind == "task"
        assert "boom" in outcome.message

    def test_budget_exhaustion_classified_not_failed(self):
        def spinner(img):
            while True:
                yield from img.barrier()

        from repro.explore.schedule import DefaultSource
        target = make_spmd_target(spinner, 2, max_events=500)
        outcome = target(DefaultSource())
        assert outcome.kind == "budget"
        assert not outcome.failed
