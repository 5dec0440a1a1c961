"""Controlled-scheduling mode of the engine (DESIGN.md §10.1).

Two obligations: (1) a source that always answers 0 reproduces the
baseline engine's execution exactly — same firing order, same final
state, same fingerprints on a full machine workload; (2) non-zero
choices actually reorder same-instant events, and the mechanics
(mid-run installation, budgets, bounds) behave.
"""

import pytest

from repro.sim.engine import ChoicePoint, SimulationError, Simulator
from repro.explore.schedule import DefaultSource, RecordingSource


class PickLast(DefaultSource):
    """Always fires the newest same-instant candidate first."""

    def choose(self, point):
        return point.n - 1


class TestAllZerosEqualsBaseline:
    def _workload(self, sim):
        fired = []
        for tag in range(6):
            sim.schedule(1.0, fired.append, tag)
        sim.schedule(2.0, fired.append, "late")
        sim.call_soon(fired.append, "soon")
        return fired

    def test_firing_order_identical(self):
        base_sim = Simulator()
        base = self._workload(base_sim)
        base_sim.run()

        ctrl_sim = Simulator()
        ctrl_sim.set_schedule_source(DefaultSource())
        ctrl = self._workload(ctrl_sim)
        ctrl_sim.run()

        assert ctrl == base
        assert ctrl_sim.now == base_sim.now
        assert ctrl_sim.events_processed == base_sim.events_processed

    def test_machine_fingerprint_identical(self):
        from repro.apps.ordering_bug import run_ordering_bug

        base = run_ordering_bug(seed=0)
        ctrl = run_ordering_bug(seed=0, schedule=DefaultSource())
        assert ctrl.ok and base.ok
        assert ctrl.observed == base.observed
        assert ctrl.sim_time == base.sim_time

    def test_cascades_and_cancellation_identical(self):
        def workload(sim):
            fired = []

            def cascade(depth):
                fired.append((sim.now, depth))
                if depth:
                    sim.call_soon(cascade, depth - 1)

            sim.schedule(1.0, cascade, 3)
            doomed = sim.schedule(1.0, fired.append, "doomed")
            sim.schedule(1.0, sim.cancel, doomed)
            sim.schedule(1.0, fired.append, "kept")
            sim.run()
            return fired, sim.now, sim.events_processed

        base_result = workload(Simulator())
        ctrl_sim = Simulator()
        ctrl_sim.set_schedule_source(DefaultSource())
        assert workload(ctrl_sim) == base_result


class TestChoicePoints:
    def test_nonzero_choice_reorders_ties(self):
        sim = Simulator()
        sim.set_schedule_source(PickLast())
        fired = []
        for tag in range(4):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [3, 2, 1, 0]

    def test_single_candidate_asks_no_question(self):
        sim = Simulator()
        recorder = RecordingSource(DefaultSource())
        sim.set_schedule_source(recorder)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert recorder.records == []  # distinct instants: never a tie

    def test_ties_are_recorded_with_labels(self):
        sim = Simulator()
        recorder = RecordingSource(DefaultSource())
        sim.set_schedule_source(recorder)

        def named_a():
            pass

        def named_b():
            pass

        sim.schedule(1.0, named_a)
        sim.schedule(1.0, named_b)
        sim.run()
        assert len(recorder.records) == 1
        rec = recorder.records[0]
        assert rec.domain == "ready" and rec.n == 2
        assert "named_a" in rec.labels[0]
        assert "named_b" in rec.labels[1]

    def test_same_instant_newcomers_join_batch_tail(self):
        # an event scheduled *for the current instant* during the instant
        # becomes a candidate after the existing ones (baseline order)
        sim = Simulator()
        sim.set_schedule_source(DefaultSource())
        fired = []

        def spawner():
            fired.append("spawner")
            sim.call_soon(fired.append, "newcomer")

        sim.schedule(1.0, spawner)
        sim.schedule(1.0, fired.append, "sibling")
        sim.run()
        assert fired == ["spawner", "sibling", "newcomer"]

    def test_out_of_range_choice_rejected(self):
        class Bad(DefaultSource):
            def choose(self, point):
                return point.n

        sim = Simulator()
        sim.set_schedule_source(Bad())
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()


class TestMechanics:
    def test_cannot_install_source_mid_run(self):
        sim = Simulator()

        def attach():
            sim.set_schedule_source(DefaultSource())

        sim.schedule(1.0, attach)
        with pytest.raises(SimulationError):
            sim.run()

    def test_max_events_budget_enforced(self):
        sim = Simulator()
        sim.set_schedule_source(DefaultSource())
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=3)

    def test_source_can_be_cleared_between_runs(self):
        sim = Simulator()
        sim.set_schedule_source(DefaultSource())
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.set_schedule_source(None)
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]

    def test_choice_point_repr_fields(self):
        point = ChoicePoint("lag", 3, key="copy:0->1", branch_hint=True)
        assert point.domain == "lag"
        assert point.n == 3
        assert point.key == "copy:0->1"
