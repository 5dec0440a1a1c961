"""Finish-counter failure reconciliation (DESIGN §11.4) and the
stall-report failure diagnostics."""

import pytest

from repro.core.finish import stall_report
from repro.net.faults import FaultPlan
from repro.runtime.failure import FailureConfig
from repro.runtime.program import Machine
from repro.runtime.team import Team
from repro.core.finish import FinishFrame


def make_frame(n=4, recover=False):
    """A frame on image 0; with ``recover`` it keeps a spawn ledger."""
    machine = Machine(n, seed=0, failure_detection=(
        FailureConfig(recover=True) if recover else None))
    team = machine.team_world
    return machine, FinishFrame(machine, 0, team, 0)


class TestCounterStamps:
    def test_send_deliver_pair_tracks_destination(self):
        _m, fr = make_frame()
        stamp = fr.on_send(dst=2)
        assert stamp == (False, 0, 2)
        fr.on_delivered(stamp)
        assert fr.even.sent == 1 and fr.even.delivered == 1
        assert fr.delivered_to == {2: 1}
        assert fr.sent_to == {2: 1}

    def test_receive_complete_pair_tracks_source(self):
        _m, fr = make_frame()
        stamp = fr.on_received(False, src=3)
        fr.on_completed(stamp)
        assert fr.even.received == 1 and fr.even.completed == 1
        assert fr.received_from == {3: 1}
        assert fr.completed_from == {3: 1}

    def test_send_failed_uncounts_exactly_one(self):
        m, fr = make_frame()
        s1 = fr.on_send(dst=2)
        s2 = fr.on_send(dst=2)
        fr.on_delivered(s1)
        fr.on_send_failed(s2)
        assert fr.even.sent == 1 and fr.even.delivered == 1
        assert fr.c_sent == 1
        assert fr.sent_to[2] == 1
        assert m.stats["finish.sends_failed"] == 1
        assert fr.even.locally_quiet()


class TestReconcileFailure:
    def test_delivered_pairs_subtracted_wholesale(self):
        m, fr = make_frame()
        for _ in range(3):
            fr.on_delivered(fr.on_send(dst=2))
        fr.on_delivered(fr.on_send(dst=1))
        fr.reconcile_failure(2)
        assert fr.even.sent == 1 and fr.even.delivered == 1
        assert fr.c_sent == 1 and fr.c_delivered == 1
        assert 2 in fr.reconciled
        assert m.stats["finish.reconciled"] == 1
        assert fr.even.locally_quiet()

    def test_receives_from_dead_peer_subtracted(self):
        _m, fr = make_frame()
        stamp = fr.on_received(False, src=2)
        fr.on_completed(stamp)
        fr.on_completed(fr.on_received(False, src=1))
        fr.reconcile_failure(2)
        assert fr.even.received == 1 and fr.even.completed == 1

    def test_idempotent(self):
        m, fr = make_frame()
        fr.on_delivered(fr.on_send(dst=2))
        fr.reconcile_failure(2)
        snap = fr.snapshot()
        fr.reconcile_failure(2)
        assert fr.snapshot() == snap
        assert m.stats["finish.reconciled"] == 1

    def test_inflight_send_resolves_via_send_failed_not_reconcile(self):
        """A counted send still in flight at reconcile time is NOT
        subtracted (only delivered pairs are); its later PeerFailedError
        resolution uncounts it exactly once — never twice."""
        _m, fr = make_frame()
        stamp = fr.on_send(dst=2)          # in flight, not delivered
        fr.reconcile_failure(2)
        assert fr.even.sent == 1           # untouched by the reconcile
        fr.on_send_failed(stamp)
        assert fr.even.sent == 0
        assert fr.even.locally_quiet()

    def test_post_reconcile_events_naming_peer_dropped(self):
        _m, fr = make_frame()
        stamp = fr.on_send(dst=2)
        fr.on_delivered(stamp)
        fr.reconcile_failure(2)
        fr.on_delivered(stamp)             # late ack from the dead peer
        rstamp = fr.on_received(False, src=2)
        fr.on_completed(rstamp)
        assert fr.even.sent == 0 and fr.even.delivered == 0
        assert fr.even.received == 0 and fr.even.completed == 0

    def test_ledger_entries_for_dead_destination_popped(self):
        _m, fr = make_frame(recover=True)
        fr.ledger[0] = (2, None, (), "a")
        fr.ledger[1] = (1, None, (), "b")
        fr.ledger[2] = (2, None, (), "c")
        lost = fr.reconcile_failure(2)
        assert list(lost) == [0, 2]
        assert list(fr.ledger) == [1]

    def test_ledger_pops_by_spawn_id(self):
        """A failed send leaves the ledger by id, wherever it sits, and
        cannot leave twice."""
        _m, fr = make_frame(recover=True)
        for spawn_id in (7, 3, 9):
            fr.ledger[spawn_id] = (2, None, (), f"s{spawn_id}")
        assert fr.ledger.pop(3, None) == (2, None, (), "s3")
        assert fr.ledger.pop(3, None) is None
        assert list(fr.ledger) == [7, 9]

    def test_ledger_reconcile_unreconcile_round_trip_keeps_order(self):
        """Re-execution order is ledger order: reconcile hands the dead
        destination's entries back in send order, survivors keep theirs,
        and healing re-books the popped entries after everything sent
        since — the order the list-based ledger produced."""
        _m, fr = make_frame(recover=True)
        fr.ledger[10] = (2, None, (), "a")
        fr.ledger[11] = (1, None, (), "b")
        fr.ledger[12] = (2, None, (), "c")
        fr.ledger[13] = (3, None, (), "d")
        lost = fr.reconcile_failure(2)
        assert list(lost.items()) == [(10, (2, None, (), "a")),
                                      (12, (2, None, (), "c"))]
        assert list(fr.ledger) == [11, 13]
        fr.ledger[14] = (1, None, (), "e")       # sent while 2 was out
        fr.unreconcile(2)
        assert list(fr.ledger) == [11, 13, 14, 10, 12]
        assert fr.ledger[12] == (2, None, (), "c")
        assert 2 not in fr.reconciled
        # healed: a second confirmation pops the same entries again
        assert list(fr.reconcile_failure(2)) == [10, 12]

    def test_closed_block_keeps_no_recovery_records(self):
        """A block that ended on this image lost nothing: a confirmation
        after it re-executes none of its spawns, and healing books none
        back."""
        _m, fr = make_frame(recover=True)
        fr.ledger[0] = (2, None, (), "a")
        fr.ledger[1] = (3, None, (), "b")
        assert list(fr.reconcile_failure(2)) == [0]
        fr.close()
        assert fr.ledger is None and fr.executed is None
        assert fr.reconcile_failure(3) == {}
        fr.unreconcile(2)
        assert fr.ledger is None and 2 not in fr.reconciled

    def test_folds_odd_into_even_first(self):
        """Reconciliation collapses both epochs so the subtraction has a
        single target and any in-flight wave restarts."""
        _m, fr = make_frame()
        fr.on_delivered(fr.on_send(dst=2))
        fr.advance_to_odd()
        fr.on_delivered(fr.on_send(dst=2))  # counted in the odd epoch
        gen0 = fr.gen
        fr.reconcile_failure(2)
        assert fr.gen == gen0 + 1
        assert not fr.in_odd
        assert fr.even.sent == 0 and fr.even.delivered == 0


class TestLazyFrameSeeding:
    def test_frame_created_after_confirmation_starts_reconciled(self):
        machine = Machine(4, seed=0, failure_detection=FailureConfig())
        machine.network.confirm_dead(3)
        fr = FinishFrame(machine, 0, machine.team_world, 5)
        assert 3 in fr.reconciled
        fr.on_delivered(fr.on_send(dst=3))
        assert fr.even.sent == 1 and fr.even.delivered == 0


class TestStallReportFailureDiagnostics:
    def test_lists_dead_and_suspected_images(self):
        machine = Machine(4, seed=0, failure_detection=FailureConfig())
        machine.kill_image(1)
        machine.failure.transition("suspect", 1)
        report = stall_report(machine, blocked=[0])
        assert "dead images: [1]" in report
        assert "suspected images: [1]" in report

    def test_lists_pending_spawn_reply_and_event_wait_handles(self):
        """Wedge one image on an event that is never notified and leave
        a reliable spawn message unacked; the report must break down
        both pending-handle kinds per image."""
        from repro.net.topology import MachineParams
        from repro.net.transport import Message

        def kernel(img):
            ev = img.machine.event_by_name("ev")
            if img.rank == 1:
                yield from img.event_wait(ev)
            else:
                yield from img.compute(1e-6)

        machine = Machine(2, seed=0,
                          params=MachineParams.uniform(2, reliable=True))
        machine.make_event(name="ev")
        machine.launch(kernel)
        try:
            machine.sim.run(max_events=200_000)
        except Exception:
            pass  # the never-notified wait deadlocks; state is what we want
        machine.network.send(Message(1, 0, 64, None, kind="spawn"),
                             want_ack=True)
        report = stall_report(machine, blocked=[1])
        assert "image 1 pending handles:" in report
        assert "spawn_replies=1" in report
        assert "event_waits=1" in report
