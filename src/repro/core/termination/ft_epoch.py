"""Fault-tolerant epoch termination detection (DESIGN §11).

The paper's Fig. 7 algorithm closes each wave with a synchronous team
allreduce — which deadlocks the moment a team member fail-stops, because
the reduction tree waits for the dead image's contribution forever.
This variant replaces the allreduce with a coordinator round that never
waits on a *confirmed-dead* member (whose counters reconciliation has
already folded into the survivors):

1. wait until locally quiet in the even epoch **or** a failure is known
   (a confirmed death reconciles the frame's counters and wakes the
   wait; a mere suspicion only re-routes coordination around the peer);
2. with recovery off, a known failure raises a structured
   :class:`~repro.runtime.failure.ImageFailureError` instead of wedging;
3. otherwise report ``even.sent - even.completed`` into a *report
   tree* — a radix tree over every member not confirmed dead, rotated
   so the round's coordinator (the lowest-ranked alive member) is the
   root.  Each node folds its own count into its children's subtree
   sums and forwards one aggregate up, so a round costs each image
   O(radix) messages and the coordinator O(radix) fan-in instead of a
   p-wide flat gather (paper-scale image counts, DESIGN §13);
4. the coordinator's aggregate must cover every member *not confirmed
   dead* (merely-suspected members included — their counters are
   un-reconciled, so a verdict summed without them is not a consistent
   cut) of the same generation; a mid-round membership change bumps the
   generation, making the survivors restart the round with a fresh tree
   (and possibly a new coordinator, if the old one died);
5. the round's verdict (the summed outstanding count) is cached under
   ``(frame key, round)`` and broadcast back down the report tree;
   termination is a zero verdict.

The verdict cache and coordinator scratch state are machine-global —
like the monotonic suspect set, they model a replicated membership/
agreement service (ULFM-style) rather than an in-band consensus
protocol, which keeps the round logic honest about *asynchrony* (all
coordination travels as active messages) while idealizing *agreement*.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.net.active_messages import AMCategory
from repro.core.finish import FinishFrame

_REPORT = "ft.report"
_VERDICT = "ft.verdict"


def register_handlers(machine) -> None:
    """Called once per machine, on the family's first use there."""
    am = machine.am
    am.register(_REPORT, _make_report_handler(machine))
    am.register(_VERDICT, _make_verdict_handler(machine))


def _verdict_slot(key, r) -> tuple:
    return ("ft.verdict", key, r)


def _collect_slot(key, r, node) -> tuple:
    return ("ft.collect", key, r, node)


_TREE_RADIX = 4


def _layout(machine, team_id: int, gen: int):
    """Report-tree layout for membership generation ``gen``: the
    non-confirmed members rotated so the coordinator sits at position
    0, plus the position of every member.  Cached per (team, gen) so a
    round costs O(1) lookups per report, and kept for the verdict
    broadcast (which may land after a later membership change)."""
    slot = ("ft.layout", team_id, gen)
    layout = machine.scratch.get(slot)
    if layout is None:
        service = machine.failure
        team = machine.team_by_id(team_id)
        # The verdict must sum over every member not confirmed dead —
        # merely-suspected members included.  Excluding a live suspect
        # sums an inconsistent cut: its unmatched sends/completions flow
        # through the survivors' counters with opposite signs and can
        # cancel to a spurious zero while it still holds live work (seen
        # as an exact UTS undercount under phi suspicion across a
        # healing partition).
        required = service.required_members(team)
        alive = service.alive_members(team)
        coordinator = alive[0] if alive else required[0]
        ci = required.index(coordinator)
        order = required[ci:] + required[:ci]
        layout = (order, {m: i for i, m in enumerate(order)})
        machine.scratch[slot] = layout
    return layout


def _subtree_need(pos: int, size: int) -> int:
    """Number of descendants below position ``pos`` — how many subtree
    reports the node must fold in before sending its aggregate up."""
    total = -1  # exclude pos itself
    frontier = [pos]
    while frontier:
        nxt = []
        for p in frontier:
            total += 1
            first = _TREE_RADIX * p + 1
            if first < size:
                nxt.extend(range(first, min(first + _TREE_RADIX, size)))
        frontier = nxt
    return total


def _accept_report(machine, key, r, team_id, node: int, sender: int,
                   subtotal: int, count: int, gen: int) -> None:
    """One report-tree step at ``node``: fold in a subtree aggregate
    (``sender`` ≠ ``node``) or the node's own count (``sender`` ==
    ``node``), and forward one combined aggregate to the tree parent
    once the whole subtree has reported.  At the root, a complete
    aggregate is the verdict."""
    service = machine.failure
    if machine.scratch.get(_verdict_slot(key, r)) is not None:
        # Round already decided (the reporter restarted needlessly, or
        # its report raced the broadcast): re-wake the sender's image.
        _send_verdict(machine, key, r, team_id, sender, node, gen)
        return
    if gen != service.gen:
        return  # stale report from before a membership change
    order, pos_of = _layout(machine, team_id, gen)
    pos = pos_of.get(node)
    if pos is None:
        return  # node no longer part of the membership this gen
    slot = _collect_slot(key, r, node)
    state = machine.scratch.get(slot)
    if state is None or state["gen"] != gen:
        state = {"gen": gen, "own": None, "sum": 0, "count": 0,
                 "from": set(), "need": _subtree_need(pos, len(order))}
        machine.scratch[slot] = state
    if sender == node:
        if state["own"] is not None:
            return  # duplicate own contribution
        state["own"] = subtotal
    else:
        if sender in state["from"]:
            return  # duplicate subtree report
        state["from"].add(sender)
        state["sum"] += subtotal
        state["count"] += count
    if state["own"] is None or state["count"] < state["need"]:
        return  # subtree not complete yet
    total = state["own"] + state["sum"]
    total_count = 1 + state["count"]
    machine.scratch.pop(slot, None)
    if pos == 0:
        # Root: the aggregate covers every required member — decide.
        machine.scratch[_verdict_slot(key, r)] = total
        machine.stats.incr("ft.rounds_decided")
        _broadcast_verdict(machine, key, r, team_id, node, gen)
        return
    parent = order[(pos - 1) // _TREE_RADIX]
    machine.am.request_nb(
        node, parent, _REPORT,
        args=(team_id, key, r, node, total, total_count, gen),
        category=AMCategory.SHORT, kind="ft.report",
    )


def _broadcast_verdict(machine, key, r, team_id, node: int, gen: int) -> None:
    """Wake ``node``'s frame and push the verdict to its report-tree
    children.  The verdict VALUE rides in the AM itself: under the
    simulator the shared scratch cache would carry it anyway, but on the
    process backend each worker has its own scratch, and the broadcast
    is what populates it (the handler installs the value before
    recursing)."""
    machine.get_or_create_frame(node, key).cond.wake()
    verdict = machine.scratch.get(_verdict_slot(key, r))
    order, pos_of = _layout(machine, team_id, gen)
    pos = pos_of.get(node)
    if pos is None:
        return
    first = _TREE_RADIX * pos + 1
    for c in range(first, min(first + _TREE_RADIX, len(order))):
        machine.am.request_nb(
            node, order[c], _VERDICT, args=(key, r, team_id, gen, verdict),
            category=AMCategory.SHORT, kind="ft.verdict",
        )


def _send_verdict(machine, key, r, team_id, member: int, src: int,
                  gen: int) -> None:
    """Re-wake one member that reported into an already-decided round."""
    if member == src:
        machine.get_or_create_frame(member, key).cond.wake()
        return
    verdict = machine.scratch.get(_verdict_slot(key, r))
    machine.am.request_nb(
        src, member, _VERDICT, args=(key, r, team_id, gen, verdict),
        category=AMCategory.SHORT, kind="ft.verdict",
    )


def _make_report_handler(machine):
    def handle_report(ctx, team_id, key, r, sender, subtotal, count, gen):
        _accept_report(machine, key, r, team_id, ctx.image, sender,
                       subtotal, count, gen)
    return handle_report


def _make_verdict_handler(machine):
    def handle_verdict(ctx, key, r, team_id, gen, verdict):
        if verdict is not None:
            # First write wins; under the simulator the root already
            # wrote the same value, so this is a no-op there.
            machine.scratch.setdefault(_verdict_slot(key, r), verdict)
        _broadcast_verdict(machine, key, r, team_id, ctx.image, gen)
    return handle_verdict


def ft_epoch_detector(ctx, frame: FinishFrame) -> Generator[Any, Any, int]:
    """Fault-tolerant Fig. 7: per-image detection loop; returns the
    number of completed coordinator rounds this image participated in."""
    machine = ctx.machine
    service = machine.failure
    if service is None:
        raise RuntimeError(
            "ft_epoch detector requires failure detection "
            "(run_spmd(..., failure_detection=True))"
        )
    from repro.runtime.failure import build_failure_error

    key = frame.key
    rounds = 0
    r = 0
    if service.recover:
        # Recovery mode: a confirmed death reconciles the counters
        # (waking the condition), so plain local quiescence is the
        # whole wait.  Mere suspicion only bumps the generation.
        quiet_or_failed = frame.even.locally_quiet
    else:
        # Report-only mode: a known failure ends the wait — to raise.
        def quiet_or_failed():
            return (frame.even.locally_quiet()
                    or service.has_failed(frame.team))
    while True:
        yield from frame.cond.wait_until(quiet_or_failed)
        if not service.recover and service.has_failed(frame.team):
            raise build_failure_error(
                machine, dead=set(service.confirmed),
                reason=f"image failure detected inside finish{key}")
        if not frame.even.locally_quiet():
            continue
        verdict = machine.scratch.get(_verdict_slot(key, r))
        if verdict is None:
            # Start (or restart) round r against the current membership.
            if not frame.in_odd:
                frame.advance_to_odd()
            gen0 = service.gen
            outstanding = frame.even.sent - frame.even.completed
            frame.contributed = True
            wave_start = machine.sim.now
            # Contribute the local count at this image's own report-tree
            # node; the aggregate climbs to the coordinator from there.
            _accept_report(machine, key, r, frame.team.id, ctx.rank,
                           ctx.rank, outstanding, 0, gen0)
            yield from frame.cond.wait_until(
                lambda: machine.scratch.get(_verdict_slot(key, r)) is not None
                or service.gen != gen0)
            verdict = machine.scratch.get(_verdict_slot(key, r))
            if verdict is None:
                continue  # membership changed mid-round: restart round r
            if machine.tracer is not None:
                machine.tracer.span(ctx.rank, "ft finish wave", wave_start,
                                    machine.sim.now - wave_start,
                                    args={"outstanding": outstanding,
                                          "total": verdict, "round": r})
        rounds += 1
        frame.rounds += 1
        frame.fold_to_even()
        if verdict == 0:
            return rounds
        r += 1
        machine.stats.incr("finish.extra_waves")
