"""Schedule-space exploration (DESIGN.md §10).

Systematic concurrency testing for the simulated CAF 2.0 runtime: the
engine's hidden nondeterminism (same-instant scheduling ties, per-link
delivery lag) becomes explicit choice points driven by a
:class:`ScheduleSource`; strategies search over choice sequences,
failures are recorded into replayable :class:`Schedule` artifacts and
shrunk to near-minimal repros.
"""

from repro.explore.schedule import (
    ChoiceRecord,
    DefaultSource,
    RecordingSource,
    ReplayDivergence,
    ReplaySource,
    Schedule,
    ScheduleSource,
    as_schedule_source,
)
from repro.explore.strategies import (
    DFSStrategy,
    PCTSource,
    PCTStrategy,
    RandomWalkSource,
    RandomWalkStrategy,
)
from repro.explore.explorer import (
    ExplorationReport,
    Explorer,
    RunOutcome,
    check_replay_determinism,
    make_spmd_target,
    minimize_schedule,
)

__all__ = [
    "ChoiceRecord",
    "DFSStrategy",
    "DefaultSource",
    "ExplorationReport",
    "Explorer",
    "PCTSource",
    "PCTStrategy",
    "RandomWalkSource",
    "RandomWalkStrategy",
    "RecordingSource",
    "ReplayDivergence",
    "ReplaySource",
    "RunOutcome",
    "Schedule",
    "ScheduleSource",
    "as_schedule_source",
    "check_replay_determinism",
    "make_spmd_target",
    "minimize_schedule",
]
