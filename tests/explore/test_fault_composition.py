"""FaultPlan × ScheduleSource composition (DESIGN §10 × §12).

A plan's ``crash_choice``/``partition_choice`` menus resolve against the
machine's schedule source, so crash/partition *timing* lives in the same
recorded, replayable, minimizable choice sequence as message ordering.
These tests drive the full loop on the ``ordering_bug`` target: the
explorer searches the composed space, the recorded schedule carries both
the ``"fault"`` choices and the fault-plan config, and the emitted
artifact round-trips through JSON into an identical replay.
"""

import pytest

from repro.apps.ordering_bug import make_ordering_bug_target
from repro.explore import (
    Explorer,
    RandomWalkStrategy,
    RecordingSource,
    Schedule,
    check_replay_determinism,
)
from repro.explore.schedule import DefaultSource
from repro.net.faults import FaultPlan
from repro.net.topology import MachineParams


def _partition_plan() -> FaultPlan:
    """A partition *menu*: the schedule may split 0|1 at one of three
    times (healing shortly after), or not at all."""
    return FaultPlan().partition_choice(
        [[0], [1]], starts=[1e-4, 2e-4, 3e-4], heal_after=2e-4)


def _target(faults):
    # reliable=True so a menu-picked partition delays traffic (park +
    # retransmit) instead of losing it outright — the run completes
    # either way and only the seeded ordering bug counts as a failure.
    params = MachineParams(2, reliable=True)
    return make_ordering_bug_target(params=params, faults=faults)


class TestComposedSearchSpace:
    def test_fault_menu_recorded_alongside_ordering_choices(self):
        """Under the baseline schedule the menus resolve to "no fault",
        but the questions themselves are part of the recorded run."""
        target = _target(_partition_plan())
        recorder = RecordingSource(DefaultSource())
        outcome = target(recorder)
        assert not outcome.failed
        fault_records = [r for r in recorder.records if r.domain == "fault"]
        assert len(fault_records) == 1
        assert fault_records[0].key == "partition@0"
        assert fault_records[0].n == 4          # none + three start times
        assert any(r.domain != "fault" for r in recorder.records)

    def test_target_carries_fault_config(self):
        plan = _partition_plan()
        target = _target(plan)
        assert target.fault_config == plan.to_config()
        assert _target(None).fault_config is None

    def test_explorer_finds_bug_and_stamps_fault_plan(self, tmp_path):
        """The search must still find the seeded ordering bug inside the
        composed space, and the emitted artifact must carry the plan
        config plus replay deterministically."""
        plan = _partition_plan()
        target = _target(plan)
        explorer = Explorer(target, budget=500, minimize_budget=100)
        report = explorer.run_strategy(RandomWalkStrategy(seed=3))
        assert report.found, report.to_json()
        assert report.outcome.kind == "invariant"
        assert report.schedule.fault_plan == plan.to_config()
        assert report.minimized.fault_plan == plan.to_config()

        path = tmp_path / "composed_schedule.json"
        report.minimized.save(path)
        loaded = Schedule.load(path)
        assert loaded.fault_plan == plan.to_config()

        # The artifact is self-contained: rebuild the plan from the
        # schedule itself and the replay reproduces the fingerprint.
        rebuilt = _target(FaultPlan.from_config(loaded.fault_plan))
        assert check_replay_determinism(rebuilt, loaded, times=2)

    def test_crash_menu_composes_too(self):
        """A crash menu on a bystander image shares the space: picking
        the crash changes the run (image 2's result vanishes) without
        masking the baseline's clean pass."""
        plan = FaultPlan().crash_choice(2, [1e-4, 5e-4])
        params = MachineParams(3, reliable=True)
        target = make_ordering_bug_target(n_images=3, params=params,
                                          faults=plan)

        recorder = RecordingSource(DefaultSource())
        outcome = target(recorder)
        assert not outcome.failed
        menus = [r for r in recorder.records if r.domain == "fault"]
        assert [m.key for m in menus] == ["crash@2"]
        assert menus[0].n == 3

        class PickCrash(DefaultSource):
            def choose(self, point):
                return 1 if point.domain == "fault" else 0

        crashed = target(RecordingSource(PickCrash()))
        assert outcome.fingerprint != crashed.fingerprint


class TestResolvedFaults:
    """``FaultPlan.resolved_faults()`` reports how each menu resolved,
    with the same keys/labels the ``"fault"`` choice points carry —
    the coverage signal's fault context and the artifact's
    ``fault_picks`` field both come from it."""

    def test_picks_mirror_menu_resolutions(self):
        plan = (FaultPlan()
                .crash_choice(2, [1e-4, 5e-4])
                .partition_choice([[0], [1]], starts=[2e-4]))

        class Script(DefaultSource):
            def choose(self, point):
                if point.key == "crash@2":
                    return 2          # second time: 5e-4
                return 0              # partition: none

        plan.resolve_choices(Script())
        assert plan.resolved_faults() == {
            "crash@2": "t=0.0005",
            "partition@0": "none",
        }

    def test_no_source_resolves_everything_to_none(self):
        plan = FaultPlan().crash_choice(1, [1e-4])
        plan.resolve_choices(None)
        assert plan.resolved_faults() == {"crash@1": "none"}

    def test_outcome_carries_fault_picks(self):
        plan = FaultPlan().crash_choice(2, [1e-4, 5e-4])
        params = MachineParams(3, reliable=True)
        target = make_ordering_bug_target(n_images=3, params=params,
                                          faults=plan)
        outcome = target(DefaultSource())
        assert outcome.fault_picks == {"crash@2": "none"}
        assert outcome.to_json()["fault_picks"] == {"crash@2": "none"}
