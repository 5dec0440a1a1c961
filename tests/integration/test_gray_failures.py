"""Gray-failure acceptance: UTS weak-scale survives a ×10 straggler and
a mid-run-healing partition with the *exact* sequential tree count —
zero re-executed spawns, zero surfaced PeerFailedErrors, zero confirmed
deaths (ISSUE PR6 acceptance criteria).

The straggler makes one image slow enough to be falsely suspected; its
traffic parks in the transport quarantine and flushes on unsuspect, so
the count stays exact without any compensation.  The healing partition
additionally exercises the reconciliation algebra in reverse: if a
false *confirmation* slipped through, add-back (unreconcile) would have
to repair the counters — the zero-recovered assertion proves it never
needed to.
"""

import pytest

from repro.apps.uts import (
    TreeParams,
    UTSConfig,
    run_uts,
    sequential_tree_size,
)
from repro.net.faults import FaultPlan
from repro.net.topology import MachineParams
from repro.runtime.failure import FailureConfig

TREE = TreeParams(b0=4, max_depth=7, seed=19)


def _expected() -> int:
    return sequential_tree_size(TREE)


class TestStragglerScenario:
    def test_uts_exact_through_x10_straggler(self):
        plan = FaultPlan().straggle(1, 10.0, degrade_at=2e-4)
        r = run_uts(4, UTSConfig(tree=TREE), seed=42, faults=plan,
                    failure_detection=FailureConfig(recover=True))
        assert r.total_nodes == _expected()
        assert r.recovered_spawns == 0          # nothing re-executed
        assert r.failed_images == ()            # nothing confirmed dead


class TestHealingPartitionScenario:
    @pytest.mark.parametrize("detector", ["timeout", "phi"])
    def test_uts_exact_through_mid_run_healing_partition(self, detector):
        """Reliable transport parks cross-partition retransmissions on
        suspicion and flushes them at the heal; finish completes with
        the exact count.

        The phi case is a regression guard: sustained mutual suspicion
        across the partition once let a coordinator round decide over
        ``alive_members`` only — an inconsistent cut whose unmatched
        sends/completions cancelled to a spurious zero verdict, so
        finish concluded while suspected images still held live work
        (UTS undercount 2582/19438).  Rounds now require a report from
        every member not confirmed dead."""
        n = 4
        params = MachineParams(n, reliable=True)
        plan = FaultPlan().partition([[0, 1], [2, 3]], at=3e-4,
                                     heal_at=1.5e-3)
        r = run_uts(n, UTSConfig(tree=TREE), seed=42, params=params,
                    faults=plan,
                    failure_detection=FailureConfig(recover=True,
                                                    detector=detector))
        assert r.total_nodes == _expected()
        assert r.recovered_spawns == 0
        assert r.failed_images == ()
        assert r.retransmits > 0                # the partition did bite


class TestGrayFailureDeterminism:
    @pytest.mark.parametrize("plan_maker", [
        lambda: FaultPlan().straggle(1, 10.0, degrade_at=2e-4),
        lambda: FaultPlan().partition([[0, 1], [2, 3]], at=3e-4,
                                      heal_at=1.5e-3),
    ], ids=["straggler", "partition"])
    def test_identical_seed_and_plan_replay_bit_identical(self, plan_maker):
        params = MachineParams(4, reliable=True)

        def once():
            r = run_uts(4, UTSConfig(tree=TREE), seed=7, params=params,
                        faults=plan_maker(),
                        failure_detection=FailureConfig(recover=True))
            return (r.total_nodes, r.sim_time, r.retransmits,
                    r.recovered_spawns, r.failed_images)

        assert once() == once()
