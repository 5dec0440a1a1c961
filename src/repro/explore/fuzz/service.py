"""The coverage-guided schedule×fault fuzzing service (DESIGN.md §15).

One in-process loop over one target.  Replay determinism (a run is a
pure function of program, seed, fault plan and choice sequence) makes
the whole service deterministic for a given seed, and lets it
re-verify any claim by replaying the artifact.

The fuzz loop per run:

1. pick an input — a *seed run* from a random walk while the corpus
   warms up (the first ``_SEED_RUNS`` runs), afterwards mostly a
   *mutation* of a corpus entry (rarity-weighted parent selection,
   :mod:`mutate` operators, directed fault-menu bumps toward untried
   alternatives);
2. execute under a :class:`RecordingSource`, extract coverage features
   from the recorded stream (:mod:`coverage`);
3. novel features ⇒ the schedule joins the corpus as a mutation parent;
   a *new fault context* (first time a given resolution of the fault
   menus is seen) additionally queues a deterministic **burst**: one
   raise-to-max mutation per delivery-lag key of the new entry, so
   every fault context gets its obvious channel-wide lag pushes tried
   immediately instead of waiting on random mutator luck;
4. failures are queued; the service minimizes (ddmin), strictly
   re-verifies replay determinism (``_VERIFY_REPLAYS`` replays), dedups
   by (kind, minimized fingerprint) and writes each survivor to the
   findings directory.

The loop runs in rounds of ``sync_every`` schedules: within a round,
novelty is judged against the coverage map as it stood at the round's
start plus the round's own local map, which is merged in at the
round's end, where queued failures are processed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.explore.explorer import (
    check_replay_determinism,
    minimize_schedule,
    record_run,
)
from repro.explore.schedule import DEFAULT_LAG_STEPS, ReplaySource, Schedule
from repro.explore.strategies import RandomWalkStrategy
from repro.explore.fuzz.corpus import Corpus, CorpusEntry, FindingStore
from repro.explore.fuzz.coverage import CoverageMap, features
from repro.explore.fuzz.mutate import mutate_records

__all__ = ["FuzzConfig", "FuzzFinding", "FuzzReport", "FuzzService"]

#: random-walk runs before the loop starts mutating the corpus
_SEED_RUNS = 8
#: share of post-warm-up runs that mutate a corpus entry
_MUTATION_BIAS = 0.8
#: strict replays a minimized failure must pass to count as verified
_VERIFY_REPLAYS = 2


@dataclass
class FuzzConfig:
    """Service knobs.  ``budget`` is the total schedule count;
    ``lag_steps`` sets the delivery-lag quantization of the search
    space (both the seed strategy and mutation replays use it, so every
    searcher faces the same space)."""

    budget: int = 2000
    seed: int = 0
    max_findings: Optional[int] = None
    minimize_budget: int = 300
    sync_every: int = 50          # schedules per coverage-merge round
    lag_steps: int = DEFAULT_LAG_STEPS

    def __post_init__(self):
        for name, least in (("budget", 0), ("minimize_budget", 0),
                            ("sync_every", 1), ("lag_steps", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"FuzzConfig.{name} must be >= {least}, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class FuzzFinding:
    """One verified, deduplicated failure."""

    kind: str
    message: str
    fingerprint: str              # minimized choice-tree fingerprint
    found_at: int                 # total schedules spent at discovery
    verified: bool
    path: Optional[str] = None    # findings-dir artifact, if persistent
    minimized: Optional[Schedule] = None


@dataclass
class FuzzReport:
    """What one service run produced."""

    schedules_run: int
    findings: List[FuzzFinding]
    corpus_size: int
    coverage_features: int

    @property
    def found(self) -> bool:
        return bool(self.findings)

    @property
    def first_find_at(self) -> Optional[int]:
        return min((f.found_at for f in self.findings), default=None)


def _pick_parent(corpus: Corpus, coverage: CoverageMap,
                 rng: random.Random) -> CorpusEntry:
    """Rarity-weighted parent selection over the (sorted) corpus."""
    entries = list(corpus)
    weights = [coverage.rarity(e.feats) + 1e-9 for e in entries]
    total = sum(weights)
    mark = rng.random() * total
    acc = 0.0
    for entry, w in zip(entries, weights):
        acc += w
        if mark <= acc:
            return entry
    return entries[-1]


def _burst_candidates(entry: CorpusEntry) -> List[List]:
    """The deterministic burst for a new fault context: every lag key
    of the entry raised to max, one candidate per key (sorted)."""
    keys = sorted({r.key for r in entry.schedule.records
                   if r.domain == "lag" and r.key and r.n > 1})
    out = []
    for key in keys:
        recs = [r.replace(r.n - 1)
                if (r.domain == "lag" and r.key == key) else r
                for r in entry.schedule.records]
        out.append(recs)
    return out


def _fuzz_segment(target: Callable, config: FuzzConfig,
                  snapshot: CoverageMap, corpus: Corpus,
                  rng: random.Random, strategy, budget: int,
                  run_index_start: int, pending_bursts: List[List]
                  ) -> Tuple[CoverageMap, List[Tuple[int, Schedule]]]:
    """Run ``budget`` schedules, mutating ``corpus`` and
    ``pending_bursts`` in place.  Novelty is judged against
    ``snapshot`` plus this segment's own local map.  Returns the local
    map, for the caller to merge into ``snapshot``, and the failing
    schedules with their offsets in the segment."""
    local = CoverageMap()
    failures: List[Tuple[int, Schedule]] = []
    for i in range(budget):
        run_index = run_index_start + i
        label = "mutation"
        if pending_bursts:
            records = pending_bursts.pop(0)
            source = ReplaySource(records, strict=False,
                                  lag_steps=config.lag_steps)
            label = "burst"
        elif (len(corpus) > 0 and run_index >= _SEED_RUNS
                and rng.random() < _MUTATION_BIAS):
            parent = _pick_parent(corpus, snapshot, rng)
            untried = snapshot.fault_untried(parent.schedule.records)
            records = mutate_records(parent.schedule.records, rng,
                                     fault_untried=untried)
            source = ReplaySource(records, strict=False,
                                  lag_steps=parent.schedule.lag_steps,
                                  lag_slack=parent.schedule.lag_slack)
        else:
            source = strategy.begin_run(run_index)
            label = strategy.name
        schedule, outcome = record_run(
            target, source, {"strategy": label, "run": run_index})
        feats = features(schedule.records)
        novel = {f for f in feats if f not in snapshot and f not in local}
        local.observe(feats)
        if novel:
            entry = corpus.add(schedule, feats)
            if entry is not None and any(f.startswith("ctx|")
                                         for f in novel):
                pending_bursts.extend(_burst_candidates(entry))
        if outcome.failed:
            failures.append((i, schedule))
    return local, failures


class FuzzService:
    """Coverage-guided fuzzing over one target.

    Parameters
    ----------
    target:
        A :func:`make_spmd_target`-style ``target(source) -> RunOutcome``,
        e.g. what ``make_ordering_bug_target()`` returns.
    config:
        Service knobs (:class:`FuzzConfig`).
    findings_dir:
        Optional persistence root: verified findings are written there
        as self-contained minimized schedule JSON, and the ones already
        there are not reported again.
    """

    def __init__(self, target: Callable,
                 config: Optional[FuzzConfig] = None,
                 findings_dir: Optional[str] = None):
        self.target = target
        self.config = config or FuzzConfig()
        self.corpus = Corpus()
        self.findings_store = FindingStore(findings_dir)
        self.findings_store.load()
        self.coverage = CoverageMap()

    # -- failure processing -------------------------------------------- #

    def _process_failure(self, schedule: Schedule, found_at: int,
                         findings: List[FuzzFinding]) -> None:
        if (self.config.max_findings is not None
                and len(findings) >= self.config.max_findings):
            return
        kind = (schedule.outcome or {}).get("kind", "unknown")
        message = (schedule.outcome or {}).get("message", "")
        minimized = minimize_schedule(self.target, schedule,
                                      budget=self.config.minimize_budget)
        verified = check_replay_determinism(
            self.target, minimized, times=_VERIFY_REPLAYS)
        if not verified:
            # A finding that does not replay deterministically would
            # poison the findings directory; record it unverified but
            # never persist it.
            findings.append(FuzzFinding(
                kind=kind, message=message,
                fingerprint=minimized.fingerprint(), found_at=found_at,
                verified=False, minimized=minimized))
            return
        path = self.findings_store.add(kind, minimized)
        if path is None:
            return                # duplicate identity
        findings.append(FuzzFinding(
            kind=kind, message=message,
            fingerprint=minimized.fingerprint(), found_at=found_at,
            verified=True, path=path or None, minimized=minimized))

    # -- main loop ----------------------------------------------------- #

    def run(self) -> FuzzReport:
        cfg = self.config
        findings: List[FuzzFinding] = []
        total_runs = 0
        rng = random.Random(cfg.seed * 1_000_003 + 1)
        strategy = RandomWalkStrategy(seed=cfg.seed,
                                      lag_steps=cfg.lag_steps)
        pending: List[List] = []
        while total_runs < cfg.budget:
            if (cfg.max_findings is not None
                    and len(findings) >= cfg.max_findings):
                break
            chunk = min(cfg.sync_every, cfg.budget - total_runs)
            local, failures = _fuzz_segment(
                self.target, cfg, self.coverage, self.corpus, rng,
                strategy, chunk, total_runs, pending)
            self.coverage.merge(local)
            for offset, schedule in failures:
                self._process_failure(schedule, total_runs + offset + 1,
                                      findings)
            total_runs += chunk
        return FuzzReport(
            schedules_run=total_runs, findings=findings,
            corpus_size=len(self.corpus),
            coverage_features=len(self.coverage))
