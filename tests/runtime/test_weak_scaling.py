"""Weak-scaling regression tests (DESIGN.md §13).

Two families:

- *Sparse-vs-dense equivalence* — the per-peer maps in
  :class:`~repro.core.finish.FinishFrame` became sparse dicts; these
  tests drive the reconcile/unreconcile algebra against a dense array
  reference model and assert every observable counter is identical, and
  that the fault-tolerant epoch detector still reaches the right
  verdicts through the gray-failure resurrect path (PR 6) once state is
  sparse.

- *Tree heartbeats at scale* — monitoring runs over an O(log p) tree
  instead of all pairs; these tests pin detection latency and
  zero-false-confirmation behavior at 1024 images for both detectors.
"""

import random

import pytest

from repro.apps.uts import (
    TreeParams,
    UTSConfig,
    run_uts,
    sequential_tree_size,
)
from repro.core.finish import FinishFrame
from repro.net.faults import FaultPlan
from repro.net.topology import MachineParams
from repro.runtime.failure import FailureConfig
from repro.runtime.program import Machine, run_spmd


def idle_kernel(img, cost=2e-3):
    yield from img.compute(cost)
    return img.rank


# --------------------------------------------------------------------- #
# Sparse-vs-dense equivalence (finish counters)
# --------------------------------------------------------------------- #

class DenseFrameModel:
    """Reference implementation of the finish counter algebra with dense
    O(p) arrays — the representation the sparse maps replaced.  Only the
    even epoch is modeled (the tests drive main-program traffic, which
    is always even-tagged)."""

    def __init__(self, n_images: int):
        self.sent = self.delivered = self.received = self.completed = 0
        self.sent_to = [0] * n_images
        self.delivered_to = [0] * n_images
        self.received_from = [0] * n_images
        self.completed_from = [0] * n_images
        self.reconciled: set[int] = set()
        self._stamps: dict[int, tuple] = {}

    def on_send(self, dst: int) -> None:
        self.sent += 1
        self.sent_to[dst] += 1

    def on_delivered(self, dst: int) -> None:
        if dst in self.reconciled:
            return
        self.delivered += 1
        self.delivered_to[dst] += 1

    def on_received(self, src: int) -> None:
        if src in self.reconciled:
            return
        self.received += 1
        self.received_from[src] += 1

    def on_completed(self, src: int) -> None:
        if src in self.reconciled:
            return
        self.completed += 1
        self.completed_from[src] += 1

    def reconcile(self, dead: int) -> None:
        if dead in self.reconciled:
            return
        self.reconciled.add(dead)
        d = self.delivered_to[dead]
        r = self.received_from[dead]
        c = self.completed_from[dead]
        self.sent -= d
        self.delivered -= d
        self.received -= r
        self.completed -= c
        self.delivered_to[dead] = 0
        self.received_from[dead] = 0
        self.completed_from[dead] = 0
        self._stamps[dead] = (d, r, c)

    def unreconcile(self, peer: int) -> None:
        if peer not in self.reconciled:
            return
        self.reconciled.discard(peer)
        d, r, c = self._stamps.pop(peer, (0, 0, 0))
        self.sent += d
        self.delivered += d
        self.received += r
        self.completed += c
        self.delivered_to[peer] = d
        self.received_from[peer] = r
        self.completed_from[peer] = c


def _assert_equivalent(frame: FinishFrame, dense: DenseFrameModel) -> None:
    assert frame.even.sent == dense.sent
    assert frame.even.delivered == dense.delivered
    assert frame.even.received == dense.received
    assert frame.even.completed == dense.completed
    assert frame.reconciled == dense.reconciled
    for name in ("delivered_to", "received_from", "completed_from"):
        sparse_map = getattr(frame, name)
        dense_arr = getattr(dense, name)
        assert sparse_map == {p: v for p, v in enumerate(dense_arr) if v}


class TestSparseDenseEquivalence:
    N_IMAGES = 4096
    PEERS = (1, 7, 130, 2048, 4095)

    def _machine_and_frame(self):
        machine = Machine(self.N_IMAGES, seed=1)
        frame = FinishFrame(machine, 0, machine.team_world, 0)
        return machine, frame

    def test_peer_maps_scale_with_degree_not_image_count(self):
        """Touching 5 peers out of 4096 leaves 5-entry maps — the frame
        footprint follows communication degree."""
        _machine, frame = self._machine_and_frame()
        for peer in self.PEERS:
            stamp = frame.on_send(dst=peer)
            frame.on_delivered(stamp)
            rstamp = frame.on_received(False, src=peer)
            frame.on_completed(rstamp)
        assert len(frame.sent_to) == len(self.PEERS)
        assert len(frame.delivered_to) == len(self.PEERS)
        assert len(frame.received_from) == len(self.PEERS)
        assert len(frame.completed_from) == len(self.PEERS)
        assert frame.even.locally_quiet()

    def test_randomized_algebra_matches_dense_reference(self):
        """A seeded random interleaving of sends, deliveries, receipts,
        completions, reconciles, and unreconciles (the false-confirmation
        heal from PR 6) stays step-for-step identical to the dense
        model."""
        _machine, frame = self._machine_and_frame()
        dense = DenseFrameModel(self.N_IMAGES)
        rng = random.Random(20260807)
        in_flight: list[tuple] = []     # undelivered send stamps
        uncompleted: list[tuple] = []   # unfinished receive stamps
        for _ in range(600):
            op = rng.choice(("send", "deliver", "receive", "complete",
                             "reconcile", "unreconcile"))
            peer = rng.choice(self.PEERS)
            if op == "send":
                in_flight.append(frame.on_send(dst=peer))
                dense.on_send(peer)
            elif op == "deliver" and in_flight:
                stamp = in_flight.pop(rng.randrange(len(in_flight)))
                frame.on_delivered(stamp)
                dense.on_delivered(stamp[2])
            elif op == "receive":
                uncompleted.append(frame.on_received(False, src=peer))
                dense.on_received(peer)
            elif op == "complete" and uncompleted:
                stamp = uncompleted.pop(rng.randrange(len(uncompleted)))
                frame.on_completed(stamp)
                dense.on_completed(stamp[2])
            elif op == "reconcile":
                frame.reconcile_failure(peer)
                dense.reconcile(peer)
            elif op == "unreconcile":
                frame.unreconcile(peer)
                dense.unreconcile(peer)
            _assert_equivalent(frame, dense)

    def test_reconcile_then_unreconcile_is_exact_inverse(self):
        _machine, frame = self._machine_and_frame()
        for peer in self.PEERS:
            stamp = frame.on_send(dst=peer)
            frame.on_delivered(stamp)
            rstamp = frame.on_received(False, src=peer)
            frame.on_completed(rstamp)
        before = (frame.even.sent, frame.even.delivered,
                  frame.even.received, frame.even.completed,
                  dict(frame.delivered_to), dict(frame.received_from),
                  dict(frame.completed_from))
        victim = self.PEERS[2]
        frame.reconcile_failure(victim)
        assert victim not in frame.delivered_to
        assert frame.even.sent == before[0] - 1
        frame.reconcile_failure(victim)      # idempotent
        frame.unreconcile(victim)
        frame.unreconcile(victim)            # idempotent
        after = (frame.even.sent, frame.even.delivered,
                 frame.even.received, frame.even.completed,
                 dict(frame.delivered_to), dict(frame.received_from),
                 dict(frame.completed_from))
        assert after == before


class TestFtEpochVerdictsWithSparseState:
    """The fault-tolerant epoch detector aggregates reports over a
    radix-4 tree and its frames keep sparse per-peer maps; the verdicts
    must stay exactly what the dense all-to-one implementation produced
    — UTS counts every node once, through gray failures included."""

    TREE = TreeParams(b0=4, max_depth=7, seed=19)

    def test_uts_exact_through_healing_partition_at_16(self):
        """PR 6's healing-partition scenario, scaled past one tree level
        of report aggregation: exact count, nothing re-executed, nobody
        confirmed dead."""
        n = 16
        params = MachineParams(n, reliable=True)
        plan = FaultPlan().partition(
            [list(range(8)), list(range(8, 16))], at=3e-4, heal_at=1.5e-3)
        r = run_uts(n, UTSConfig(tree=self.TREE), seed=42, params=params,
                    faults=plan,
                    failure_detection=FailureConfig(recover=True))
        assert r.total_nodes == sequential_tree_size(self.TREE)
        assert r.recovered_spawns == 0
        assert r.failed_images == ()
        assert r.retransmits > 0               # the partition did bite

    def test_uts_crash_recovery_with_multi_level_report_tree(self):
        """At 64 images the report tree is three levels deep; a real
        crash must still reconcile to the exact sequential count."""
        r = run_uts(64, UTSConfig(tree=self.TREE), seed=42,
                    faults=FaultPlan().crash_at(2, 1e-5),
                    failure_detection=FailureConfig(recover=True))
        assert r.total_nodes == sequential_tree_size(self.TREE)
        assert r.failed_images == (2,)

    def test_false_confirmation_resurrects_at_64(self):
        """The PR 6 resurrect path with sparse membership tables: outbound
        links of one image flap down long enough for a false confirmation;
        its probe of the surrogate root after the heal resurrects it."""
        cfg = FailureConfig(period=5e-5, timeout=1.5e-4,
                            confirm_timeout=5e-4)
        plan = FaultPlan()
        for dst in range(64):
            if dst != 1:
                plan.flap_link(1, dst, at=2e-4, down_for=8e-4, up_for=1.0)
        m, results = run_spmd(idle_kernel, 64, args=(5e-3,), faults=plan,
                              failure_detection=cfg)
        assert results == list(range(64))      # nobody lost any work
        assert m.stats["fail.false_confirmed"] >= 1
        assert m.stats["fail.resurrected"] >= 1
        assert m.failure.confirmed == set()    # every verdict retracted
        assert m.failure.incarnations[1] >= 1


# --------------------------------------------------------------------- #
# Tree heartbeats at 1024 images
# --------------------------------------------------------------------- #

class TestTreeHeartbeatsAtScale:
    @pytest.mark.parametrize("detector", ["timeout", "phi"])
    def test_crash_confirmed_within_latency_bound_at_1024(self, detector):
        """Tree monitoring must not slow detection down: the victim's
        watchers confirm within ``confirm_timeout`` plus one detector
        period plus heartbeat slack, exactly the all-pairs bound."""
        cfg = FailureConfig(period=5e-5, detector=detector)
        m, _ = run_spmd(idle_kernel, 1024, args=(2.5e-3,),
                        faults=FaultPlan().crash_at(317, 1e-4),
                        failure_detection=cfg)
        assert m.failure.confirmed == {317}
        assert m.stats["fail.false_confirmed"] == 0
        assert len(m.failure.confirm_latency) == 1
        assert (m.failure.confirm_latency[0]
                <= cfg.confirm_timeout + 2 * cfg.period)

    @pytest.mark.parametrize("detector", ["timeout", "phi"])
    def test_zero_false_confirmations_on_clean_run_at_1024(self, detector):
        m, results = run_spmd(idle_kernel, 1024, args=(1.2e-3,),
                              failure_detection=FailureConfig(
                                  period=5e-5, detector=detector))
        assert results == list(range(1024))
        assert m.network.suspects == set()
        assert m.failure.confirmed == set()
        assert m.stats["fail.false_suspected"] == 0
        assert m.stats["fail.false_confirmed"] == 0
        assert m.stats["fail.hb_rounds"] > 0

    def test_startup_heap_grows_sublinearly_with_images(self):
        """16x the images must cost well under 16x the heap: per-image
        state is lazy and per-peer state sparse, so a fresh machine's
        deep footprint is dominated by per-*machine* fixtures."""
        from repro.runtime.sizeof import deep_sizeof

        small = deep_sizeof(Machine(256, seed=1))
        large = deep_sizeof(Machine(4096, seed=1))
        assert large < 8 * small

    def test_deep_sizeof_terminates_on_cycles(self):
        from repro.runtime.sizeof import deep_sizeof

        a: list = []
        b = [a]
        a.append(b)
        assert deep_sizeof(a) > 0

    def test_monitoring_degree_bounded_by_radix(self):
        """Every image watches at most parent + radix children — the
        O(p^2) all-pairs heartbeat matrix is gone."""
        machine = Machine(1024, seed=1, failure_detection=FailureConfig())
        service = machine.failure
        for rank in (0, 1, 5, 511, 1023):
            peers = service.monitored_peers(rank)
            assert len(peers) <= 5
            assert rank not in peers
