"""The explorer: drive strategies over a target, record, minimize.

A *target* is a callable ``target(source) -> RunOutcome`` that builds a
fresh machine, runs one simulation under the given schedule source and
classifies the result.  :func:`make_spmd_target` builds one from an SPMD
kernel with full oracle integration — task failures, deadlocks,
liveness-watchdog stalls, race reports from the happens-before detector
and app-level invariants all count as "failing".

:class:`Explorer` runs a strategy under a schedule budget, recording
every run into a :class:`~repro.explore.schedule.Schedule`; the first
failing schedule is minimized with :func:`minimize_schedule` (a
ddmin-flavoured two-phase shrink: binary-search the shortest failing
prefix, then zero non-default choices in shrinking chunks) and
re-verified by strict replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.sim.engine import LivenessError, SimulationError
from repro.net.transport import RetryExhaustedError
from repro.runtime.program import DeadlockError, Machine

from repro.explore.schedule import (
    ChoiceRecord,
    RecordingSource,
    ReplaySource,
    Schedule,
    ScheduleSource,
)

__all__ = [
    "Explorer",
    "ExplorationReport",
    "Finding",
    "RunOutcome",
    "check_replay_determinism",
    "make_spmd_target",
    "minimize_schedule",
]


@dataclass
class RunOutcome:
    """Classified result of one run under a schedule source."""

    failed: bool
    kind: str              # "ok" | "invariant" | "race" | "liveness" |
                           # "deadlock" | "task" | "error" | "budget"
    message: str
    fingerprint: str       # sha256 over stats/results/failure — replay
                           # determinism means identical schedules give
                           # identical fingerprints
    sim_time: float = 0.0
    fault_picks: Optional[dict] = None  # {menu key: chosen label}, from
                                        # FaultPlan.resolved_faults()

    def to_json(self) -> dict:
        out = {"failed": self.failed, "kind": self.kind,
               "message": self.message, "fingerprint": self.fingerprint,
               "sim_time": self.sim_time}
        if self.fault_picks:
            out["fault_picks"] = self.fault_picks
        return out


def _outcome_fingerprint(machine: Optional[Machine], results: Any,
                         kind: str, message: str) -> str:
    """A stable digest of everything observable about the run.  Mirrors
    the fingerprint style of tests/sim/test_determinism.py: stats dict,
    final virtual time (exact bits via hex), results repr, plus the
    failure classification."""
    payload = {
        "kind": kind,
        "message": message,
        "results": repr(results),
    }
    if machine is not None:
        payload["stats"] = machine.stats.as_dict()
        payload["now"] = machine.sim.now.hex()
        if machine.racecheck is not None:
            payload["races"] = [str(r) for r in machine.racecheck.races]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def make_spmd_target(kernel: Callable, n_images: int, *,
                     setup: Optional[Callable] = None,
                     args: tuple = (), params=None, seed: int = 0,
                     faults=None, racecheck: bool = False,
                     invariant: Optional[Callable] = None,
                     failure_detection=None,
                     max_events: Optional[int] = 200_000) -> Callable:
    """Build a ``target(source) -> RunOutcome`` around an SPMD kernel.

    Each call constructs a fresh :class:`Machine` (cloning ``faults`` so
    per-run state never leaks between schedules), runs the kernel under
    ``source``, and classifies the outcome.  ``invariant(machine,
    results)`` may return an error string (or raise AssertionError) to
    flag an application-level violation; ``failure_detection`` is passed
    through to the machine (heartbeat detectors, so kernels exercising
    crash menus can observe suspicions); ``max_events`` bounds runaway
    schedules — hitting the budget is classified ``"budget"`` and *not*
    counted as a failure (an adversarial schedule can always starve
    progress; that is a liveness question, not this bug's).
    """

    def target(source: ScheduleSource) -> RunOutcome:
        plan = faults.clone() if faults is not None else None
        machine = Machine(n_images, params=params, seed=seed, faults=plan,
                          racecheck=racecheck, schedule=source,
                          failure_detection=failure_detection)
        if setup is not None:
            setup(machine)
        machine.launch(kernel, args=args)
        results: Any = None
        kind, message = "ok", ""
        try:
            results = machine.run(max_events=max_events)
        except LivenessError as exc:
            kind, message = "liveness", str(exc)
        except DeadlockError as exc:
            kind, message = "deadlock", str(exc)
        except RetryExhaustedError as exc:
            kind, message = "error", str(exc)
        except SimulationError as exc:
            if "max_events" in str(exc):
                kind, message = "budget", str(exc)
            else:
                kind, message = "error", str(exc)
        except Exception as exc:  # noqa: BLE001 - what a main raised
            kind = "task"
            message = "; ".join([repr(exc), *getattr(exc, "__notes__", ())])
        if kind == "ok":
            if machine.racecheck is not None and machine.racecheck.races:
                kind = "race"
                message = str(machine.racecheck.races[0])
            elif invariant is not None:
                try:
                    verdict = invariant(machine, results)
                except AssertionError as exc:
                    verdict = str(exc) or "invariant violated"
                if verdict:
                    kind, message = "invariant", str(verdict)
        failed = kind not in ("ok", "budget")
        return RunOutcome(
            failed=failed, kind=kind, message=message,
            fingerprint=_outcome_fingerprint(machine, results, kind,
                                             message),
            sim_time=machine.sim.now,
            fault_picks=(plan.resolved_faults() if plan is not None
                         else None) or None,
        )

    # The plan's config rides on the target so the explorer can stamp it
    # into every recorded Schedule: a schedule artifact then carries
    # everything needed to rebuild the run (program aside) — fault menus
    # included, since their "fault" choice points live in the recorded
    # sequence itself (DESIGN §10 × §12).
    target.fault_config = (faults.to_config() if faults is not None
                           else None)
    return target


@dataclass
class Finding:
    """One distinct failure a search produced: the failing schedule,
    its outcome, the minimized reproduction, and the dedup identity
    ``(kind, fingerprint)`` — the outcome kind plus the choice-tree
    fingerprint of the *minimized* schedule, so two runs that shrink to
    the same essential core count as one finding."""

    schedule: Schedule
    outcome: RunOutcome
    minimized: Optional[Schedule] = None
    found_at: Optional[int] = None

    @property
    def kind(self) -> str:
        return self.outcome.kind

    @property
    def fingerprint(self) -> str:
        return (self.minimized or self.schedule).fingerprint()

    @property
    def identity(self) -> tuple:
        return (self.kind, self.fingerprint)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "found_at": self.found_at,
            "outcome": self.outcome.to_json(),
            "schedule_len": len(self.schedule),
            "minimized_len": (len(self.minimized)
                              if self.minimized else None),
        }


@dataclass
class ExplorationReport:
    """What one strategy's search produced."""

    strategy: str
    schedules_run: int
    found: bool
    found_at: Optional[int] = None          # 0-based run index
    schedule: Optional[Schedule] = None     # first failing schedule
    outcome: Optional[RunOutcome] = None
    minimized: Optional[Schedule] = None
    findings: List[Finding] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "schedules_run": self.schedules_run,
            "found": self.found,
            "found_at": self.found_at,
            "outcome": self.outcome.to_json() if self.outcome else None,
            "schedule_len": len(self.schedule) if self.schedule else None,
            "minimized_len": (len(self.minimized)
                              if self.minimized else None),
            "minimized_nonzero": (self.minimized.nonzero_choices()
                                  if self.minimized else None),
            "findings": [f.to_json() for f in self.findings],
        }


class Explorer:
    """Run a search strategy against a target under a schedule budget."""

    def __init__(self, target: Callable, budget: int = 500,
                 minimize: bool = True, minimize_budget: int = 200):
        self.target = target
        self.budget = budget
        self.minimize = minimize
        self.minimize_budget = minimize_budget

    def run_strategy(self, strategy, stop_on_first: bool = True,
                     max_findings: Optional[int] = None
                     ) -> ExplorationReport:
        """Run up to ``budget`` schedules from ``strategy``.

        With ``stop_on_first=True`` (default) the search stops at the
        first failure, minimizing it if configured.  With
        ``stop_on_first=False`` it keeps exploring, collecting every
        *distinct* failure — deduped by :attr:`Finding.identity`, i.e.
        outcome kind plus the minimized schedule's choice-tree
        fingerprint — until the budget, the strategy, or
        ``max_findings`` runs out.  The service loop uses this mode to
        harvest several bugs from one sweep.
        """
        name = getattr(strategy, "name", type(strategy).__name__)
        runs = 0
        findings: List[Finding] = []
        seen_identities: set = set()
        for i in range(self.budget):
            if strategy.exhausted:
                break
            if max_findings is not None and len(findings) >= max_findings:
                break
            inner = strategy.begin_run(i)
            recorder = RecordingSource(inner)
            outcome = self.target(recorder)
            runs += 1
            schedule = Schedule(
                recorder.records,
                meta={"strategy": name, "run": i},
                fault_plan=getattr(self.target, "fault_config", None),
                outcome=outcome.to_json(),
                lag_steps=recorder.lag_steps,
                lag_slack=recorder.lag_slack,
            )
            strategy.observe(schedule, outcome)
            if not outcome.failed:
                continue
            minimized = None
            if self.minimize:
                minimized = minimize_schedule(
                    self.target, schedule, budget=self.minimize_budget)
            finding = Finding(schedule=schedule, outcome=outcome,
                              minimized=minimized, found_at=i)
            if finding.identity in seen_identities:
                continue
            seen_identities.add(finding.identity)
            findings.append(finding)
            if stop_on_first:
                break
        if findings:
            first = findings[0]
            return ExplorationReport(
                strategy=name, schedules_run=runs, found=True,
                found_at=first.found_at, schedule=first.schedule,
                outcome=first.outcome, minimized=first.minimized,
                findings=findings,
            )
        return ExplorationReport(
            strategy=name, schedules_run=runs, found=False,
        )


def _replays_failure(target: Callable, records: List[ChoiceRecord],
                     schedule: Schedule, kind: str) -> Optional[RunOutcome]:
    """Probe a candidate choice sequence (lenient replay — mutated
    prefixes may change what the run asks); return the outcome if it
    still fails the same way."""
    source = ReplaySource(records, strict=False,
                          lag_steps=schedule.lag_steps,
                          lag_slack=schedule.lag_slack)
    outcome = target(source)
    if outcome.failed and outcome.kind == kind:
        return outcome
    return None


def minimize_schedule(target: Callable, schedule: Schedule,
                      budget: int = 200) -> Schedule:
    """Shrink a failing schedule toward a near-minimal choice prefix.

    Two phases, both preserving "fails with the same kind":

    1. *prefix binary search* — the shortest prefix that still fails
       (recall a prefix is a complete schedule: replay answers 0 past
       its end, so this also canonicalizes the tail to baseline);
    2. *ddmin zeroing* — try resetting contiguous chunks of the
       remaining non-default choices to 0, halving the chunk size on
       failure to make progress, until no single choice can be zeroed.

    The result is re-recorded under strict-replay semantics so the
    emitted artifact contains exactly the choice points its own replay
    will ask, then verified to fail identically.
    """
    kind = (schedule.outcome or {}).get("kind")
    if kind is None:
        raise ValueError("schedule has no recorded failing outcome")
    best = list(schedule.records)
    spent = 0

    # Phase 1: shortest failing prefix, by bisection on the length.
    lo, hi = 0, len(best)          # invariant: prefix of hi fails
    while lo < hi and spent < budget:
        mid = (lo + hi) // 2
        spent += 1
        if _replays_failure(target, best[:mid], schedule, kind):
            hi = mid
        else:
            lo = mid + 1
    best = best[:hi]

    # Phase 2: zero out non-default choices, ddmin-style.
    chunk = max(1, len(best) // 2)
    while spent < budget:
        progress = False
        i = 0
        while i < len(best) and spent < budget:
            window = range(i, min(i + chunk, len(best)))
            touched = [j for j in window if best[j].choice != 0]
            if not touched:
                i += chunk
                continue
            candidate = list(best)
            for j in touched:
                candidate[j] = candidate[j].replace(0)
            spent += 1
            if _replays_failure(target, candidate, schedule, kind):
                best = candidate
                progress = True
            i += chunk
        if not progress:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)

    # Re-record under the minimized sequence so the artifact's choice
    # points exactly match what strict replay will encounter.
    recorder = RecordingSource(ReplaySource(
        best, strict=False, lag_steps=schedule.lag_steps,
        lag_slack=schedule.lag_slack))
    outcome = target(recorder)
    if not (outcome.failed and outcome.kind == kind):
        # Shrinking artifacts should never un-fail the re-recording —
        # but if lenient clamping interacted badly, fall back to the
        # original schedule rather than emit a non-reproducing artifact.
        recorder = RecordingSource(ReplaySource(
            schedule.records, strict=False, lag_steps=schedule.lag_steps,
            lag_slack=schedule.lag_slack))
        outcome = target(recorder)
    return Schedule(
        recorder.records,
        meta=dict(schedule.meta, minimized=True,
                  original_len=len(schedule.records),
                  probes=spent),
        fault_plan=schedule.fault_plan,
        outcome=outcome.to_json(),
        lag_steps=schedule.lag_steps,
        lag_slack=schedule.lag_slack,
    )


def check_replay_determinism(target: Callable, schedule: Schedule,
                             times: int = 2) -> bool:
    """Strict-replay ``schedule`` ``times`` times; True iff every run
    reproduces the recorded fingerprint (the §10 invariant)."""
    want = (schedule.outcome or {}).get("fingerprint")
    for _ in range(times):
        outcome = target(schedule.source(strict=True))
        if want is not None and outcome.fingerprint != want:
            return False
        want = outcome.fingerprint
    return True
