"""X10-style centralized vector-counting termination detection (paper §V).

Each image, whenever it quiesces, sends the finish *owner* (team rank 0)
a report: the vector of message counts it sent per destination, plus the
count of messages it has completed locally.  The owner declares
termination once it holds a report from every member in which, for every
image j, the summed sends addressed to j equal j's completed count.

The paper's criticism is structural: the owner receives p vectors of
size p — O(p²) traffic and memory concentrated at one image, "a
bottleneck in computations on a large number of places."  The benchmark
harness reports ``term.vector.owner_bytes`` to expose exactly that.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.runtime.sizeof import WORD
from repro.net.active_messages import AMCategory
from repro.core import collectives
from repro.core.finish import FinishFrame, frame_at

_REPORT = "term.vector.report"
_ALL_DONE = "term.vector.done"


class _OwnerState:
    """Collected reports at the finish owner."""

    def __init__(self, team_size: int):
        self.reports: dict[int, tuple[dict, int]] = {}
        self.versions: dict[int, int] = {}
        self.team_size = team_size
        self.done = False


def _owner_state(machine, key: tuple, team_size: int) -> _OwnerState:
    states = machine.scratch.setdefault("term.vector.states", {})
    if key not in states:
        states[key] = _OwnerState(team_size)
    return states[key]


def _flags(machine, key: tuple) -> dict:
    return machine.scratch.setdefault(("term.vector.flags", key), {})


def register_handlers(machine) -> None:
    """Called once per machine, on the family's first use there."""
    am = machine.am

    def handle_report(ctx, key, team_rank, version, sent_to, completed,
                      team_size):
        state = _owner_state(machine, key, team_size)
        machine.stats.incr("term.vector.owner_bytes",
                           (team_size + 2) * WORD)
        machine.stats.incr("term.vector.owner_msgs")
        _record_report(machine, ctx.image, key, state, team_rank, version,
                       sent_to, completed)

    def handle_done(ctx, key):
        _flags(machine, key)[ctx.image] = True
        frame_at(machine, ctx.image, key).cond.wake()

    am.register(_REPORT, handle_report)
    am.register(_ALL_DONE, handle_done)


def _record_report(machine, owner_world: int, key, state: _OwnerState,
                   team_rank: int, version: int, sent_to: dict,
                   completed: int) -> None:
    if version > state.versions.get(team_rank, -1):
        state.versions[team_rank] = version
        state.reports[team_rank] = (sent_to, completed)
    if state.done or len(state.reports) < state.team_size:
        return
    sends = [0] * state.team_size
    for report_sends, _completed in state.reports.values():
        for dst_tr, n in report_sends.items():
            sends[dst_tr] += n
    completed_counts = [state.reports[tr][1] for tr in range(state.team_size)]
    if sends == completed_counts:
        state.done = True
        team = machine.scratch[("term.vector.team", key)]
        for tr in range(state.team_size):
            w = team.world_rank(tr)
            if w == owner_world:
                _flags(machine, key)[w] = True
                frame_at(machine, w, key).cond.wake()
            else:
                machine.am.request_nb(
                    owner_world, w, _ALL_DONE, args=(key,),
                    category=AMCategory.SHORT, kind="term.vector.done",
                )


def vector_count_detector(ctx, frame: FinishFrame
                          ) -> Generator[Any, Any, int]:
    """Centralized detection; returns the number of reports this image
    sent (the per-image analogue of a wave count)."""
    machine = ctx.machine
    team = frame.team
    key = frame.key
    owner_world = team.world_rank(0)
    machine.scratch.setdefault(("term.vector.team", key), team)
    flags = _flags(machine, key)

    my_tr = team.rank_of(ctx.rank)
    version = 0
    reports = 0
    while not flags.get(ctx.rank, False):
        yield from frame.cond.wait_until(
            lambda: (flags.get(ctx.rank, False)
                     or (frame.c_sent == frame.c_delivered
                         and frame.c_received == frame.c_completed))
        )
        if flags.get(ctx.rank, False):
            break
        # Snapshot my per-destination sends (translated to team ranks).
        sent_to = {team.rank_of(w): n for w, n in frame.sent_to.items()}
        completed = frame.c_completed
        if ctx.rank == owner_world:
            state = _owner_state(machine, key, team.size)
            _record_report(machine, owner_world, key, state, my_tr,
                           version, sent_to, completed)
        else:
            machine.am.request_nb(
                ctx.rank, owner_world, _REPORT,
                args=(key, my_tr, version, sent_to, completed, team.size),
                payload_size=(team.size + 2) * WORD,
                category=AMCategory.LONG, kind="term.vector.report",
            )
        reports += 1
        version += 1
        # Wait until either termination is announced or my counters move
        # again (in which case I re-report).
        base = (frame.c_sent, frame.c_delivered,
                frame.c_received, frame.c_completed)
        yield from frame.cond.wait_until(
            lambda: (flags.get(ctx.rank, False)
                     or (frame.c_sent, frame.c_delivered,
                         frame.c_received, frame.c_completed) != base)
        )
    # A final barrier keeps teammates aligned on exit (the announcement
    # fans out asynchronously).
    yield from collectives.barrier(ctx, team=team)
    return reports
