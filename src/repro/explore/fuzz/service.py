"""The coverage-guided schedule×fault fuzzing service (DESIGN.md §15).

Orchestration: a pool of OS-process workers (``multiprocessing``), each
running the same *fuzz loop* against its own freshly-built target.
Replay determinism (a run is a pure function of program, seed, fault
plan and choice sequence) is what makes this fleet mergeable: a worker
result is just schedules + a feature map, and the parent can re-verify
any claim by replaying the artifact.

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
4. failures are queued; the parent minimizes (ddmin), strictly
   re-verifies replay determinism (``_VERIFY_REPLAYS`` replays), dedups
   by (kind, minimized fingerprint) and writes each survivor to the
   findings directory.

``workers=0`` runs the same loop inline — single process, fully
deterministic for a given seed — which is what the acceptance tests
use; ``workers=N`` fans rounds of ``sync_every`` schedules out to the
pool and merges between rounds (coverage merge is commutative, the
corpus is fingerprint-keyed, so the merged state does not depend on
arrival order).
"""

from __future__ import annotations

import importlib
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.explore.explorer import (
    check_replay_determinism,
    minimize_schedule,
)
from repro.explore.schedule import (
    DEFAULT_LAG_STEPS,
    RecordingSource,
    ReplaySource,
    Schedule,
)
from repro.explore.strategies import RandomWalkStrategy
from repro.explore.fuzz.corpus import Corpus, CorpusEntry, FindingStore
from repro.explore.fuzz.coverage import CoverageMap, features
from repro.explore.fuzz.mutate import mutate_records

__all__ = ["FuzzConfig", "FuzzFinding", "FuzzReport", "FuzzService",
           "TargetSpec"]

#: random-walk runs before the loop starts mutating the corpus
_SEED_RUNS = 8
#: share of post-warm-up runs that mutate a corpus entry
_MUTATION_BIAS = 0.8
#: strict replays a minimized failure must pass to count as verified
_VERIFY_REPLAYS = 2


@dataclass
class TargetSpec:
    """A picklable recipe for building a target in a worker process:
    ``factory`` is ``"package.module:callable"``; the callable is
    invoked with ``kwargs`` and must return a
    :func:`make_spmd_target`-style ``target(source) -> RunOutcome``.
    Keeping construction in the worker sidesteps pickling machines,
    fault plans and closures."""

    factory: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Callable:
        mod_name, _, attr = self.factory.partition(":")
        if not attr:
            raise ValueError(
                f"target factory {self.factory!r} must look like "
                f"'package.module:callable'")
        factory = getattr(importlib.import_module(mod_name), attr)
        return factory(**self.kwargs)

    def to_json(self) -> dict:
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_json(cls, data: dict) -> "TargetSpec":
        return cls(factory=data["factory"],
                   kwargs=dict(data.get("kwargs", {})))


@dataclass
class FuzzConfig:
    """Service knobs.  ``budget`` is the total schedule count across
    all workers; ``lag_steps`` sets the delivery-lag quantization of the
    search space (both the seed strategies and mutation replays use it,
    so every searcher faces the same space)."""

    budget: int = 2000
    workers: int = 0
    seed: int = 0
    max_findings: Optional[int] = None
    minimize_budget: int = 300
    sync_every: int = 50          # per-worker schedules per round
    lag_steps: int = DEFAULT_LAG_STEPS


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

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "fingerprint": self.fingerprint,
                "found_at": self.found_at, "verified": self.verified,
                "path": self.path,
                "minimized_len": (len(self.minimized)
                                  if self.minimized else None)}


@dataclass
class FuzzReport:
    """What one service run produced."""

    schedules_run: int
    findings: List[FuzzFinding]
    corpus_size: int
    coverage_features: int
    elapsed: float
    workers: int

    @property
    def found(self) -> bool:
        return bool(self.findings)

    @property
    def first_find_at(self) -> Optional[int]:
        return min((f.found_at for f in self.findings), default=None)

    @property
    def schedules_per_sec(self) -> float:
        return self.schedules_run / self.elapsed if self.elapsed else 0.0

    def to_json(self) -> dict:
        return {"schedules_run": self.schedules_run,
                "findings": [f.to_json() for f in self.findings],
                "corpus_size": self.corpus_size,
                "coverage_features": self.coverage_features,
                "elapsed": self.elapsed, "workers": self.workers,
                "first_find_at": self.first_find_at,
                "schedules_per_sec": round(self.schedules_per_sec, 1)}


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
                  run_index_start: int, fault_config,
                  pending_bursts: List[List]) -> dict:
    """Run ``budget`` schedules, mutating ``corpus`` and
    ``pending_bursts`` in place.  Novelty is judged against
    ``snapshot`` plus this segment's own local map; the local map is
    returned for the caller to merge (commutatively) into the global
    one."""
    local = CoverageMap()
    failures: List[Schedule] = []
    fail_offsets: List[int] = []
    new_schedules: List[Schedule] = []
    runs = 0
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
        recorder = RecordingSource(source)
        outcome = target(recorder)
        runs += 1
        schedule = Schedule(
            recorder.records,
            meta={"strategy": label, "run": run_index},
            fault_plan=fault_config, outcome=outcome.to_json(),
            lag_steps=recorder.lag_steps,
            lag_slack=recorder.lag_slack)
        feats = features(recorder.records)
        novel = {f for f in feats if f not in snapshot and f not in local}
        local.observe(feats)
        if novel:
            entry = corpus.add(schedule, feats)
            if entry is not None:
                new_schedules.append(schedule)
                if any(f.startswith("ctx|") for f in novel):
                    pending_bursts.extend(_burst_candidates(entry))
        if outcome.failed:
            failures.append(schedule)
            fail_offsets.append(i)
    return {"runs": runs, "local": local, "failures": failures,
            "fail_offsets": fail_offsets, "new_schedules": new_schedules}


def _pool_worker(payload: dict) -> dict:
    """Entry point executed in a worker process.  Everything crossing
    the boundary is JSON-shaped."""
    spec = TargetSpec.from_json(payload["spec"])
    config = FuzzConfig(**payload["config"])
    target = spec.build()
    snapshot = CoverageMap.from_json(payload["coverage"])
    corpus = Corpus()
    for doc in payload["corpus"]:
        corpus.add(Schedule.from_json(doc))
    rng = random.Random(payload["rng_seed"])
    strategy = RandomWalkStrategy(seed=payload["strategy_seed"],
                                  lag_steps=config.lag_steps)
    result = _fuzz_segment(
        target, config, snapshot, corpus, rng, strategy,
        payload["budget"], payload["run_index_start"],
        getattr(target, "fault_config", None), [])
    return {
        "runs": result["runs"],
        "coverage": result["local"].to_json(),
        "failures": [s.to_json() for s in result["failures"]],
        "fail_offsets": result["fail_offsets"],
        "new_schedules": [s.to_json() for s in result["new_schedules"]],
    }


class FuzzService:
    """Coverage-guided fuzzing over one target spec.

    Parameters
    ----------
    spec:
        The :class:`TargetSpec` to fuzz.
    config:
        Service knobs (:class:`FuzzConfig`).
    corpus_dir / findings_dir:
        Optional persistence roots.  An existing corpus directory is
        loaded and continues to grow (resumable fuzzing; merging a
        colleague's corpus is :meth:`Corpus.merge_dir`); findings are
        written as self-contained minimized schedule JSON.
    """

    def __init__(self, spec: TargetSpec,
                 config: Optional[FuzzConfig] = None,
                 corpus_dir: Optional[str] = None,
                 findings_dir: Optional[str] = None):
        self.spec = spec
        self.config = config or FuzzConfig()
        self.corpus = Corpus(corpus_dir)
        self.corpus.load()
        self.findings_store = FindingStore(findings_dir)
        self.findings_store.load()
        self.coverage = CoverageMap()
        for entry in self.corpus:
            self.coverage.observe(entry.feats)

    # -- failure processing -------------------------------------------- #

    def _process_failure(self, target: Callable, schedule: Schedule,
                         found_at: int,
                         findings: List[FuzzFinding]) -> None:
        if (self.config.max_findings is not None
                and len(findings) >= self.config.max_findings):
            return
        kind = (schedule.outcome or {}).get("kind", "unknown")
        message = (schedule.outcome or {}).get("message", "")
        minimized = minimize_schedule(target, schedule,
                                      budget=self.config.minimize_budget)
        verified = check_replay_determinism(
            target, minimized, times=_VERIFY_REPLAYS)
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
        target = self.spec.build()
        fault_config = getattr(target, "fault_config", None)
        findings: List[FuzzFinding] = []
        total_runs = 0
        started = time.monotonic()

        if cfg.workers <= 0:
            rng = random.Random(cfg.seed * 1_000_003 + 1)
            strategy = RandomWalkStrategy(seed=cfg.seed,
                                          lag_steps=cfg.lag_steps)
            pending: List[List] = []
            while total_runs < cfg.budget:
                if (cfg.max_findings is not None
                        and len(findings) >= cfg.max_findings):
                    break
                chunk = min(cfg.sync_every, cfg.budget - total_runs)
                result = _fuzz_segment(
                    target, cfg, self.coverage, self.corpus, rng,
                    strategy, chunk, total_runs, fault_config, pending)
                self.coverage.merge(result["local"])
                for sched, off in zip(result["failures"],
                                      result["fail_offsets"]):
                    self._process_failure(target, sched,
                                          total_runs + off + 1, findings)
                total_runs += result["runs"]
        else:
            total_runs = self._run_pool(target, findings)

        elapsed = time.monotonic() - started
        return FuzzReport(
            schedules_run=total_runs, findings=findings,
            corpus_size=len(self.corpus),
            coverage_features=len(self.coverage),
            elapsed=elapsed, workers=cfg.workers)

    def _run_pool(self, target: Callable,
                  findings: List[FuzzFinding]) -> int:
        cfg = self.config
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        total_runs = 0
        run_index = [0] * cfg.workers    # per-worker strategy counters
        round_no = 0
        with ctx.Pool(processes=cfg.workers) as pool:
            while total_runs < cfg.budget:
                if (cfg.max_findings is not None
                        and len(findings) >= cfg.max_findings):
                    break
                remaining = cfg.budget - total_runs
                per_worker = [min(cfg.sync_every,
                                  max(0, remaining - w * cfg.sync_every))
                              for w in range(cfg.workers)]
                payloads = []
                corpus_docs = [e.schedule.to_json() for e in self.corpus]
                coverage_doc = self.coverage.to_json()
                for w, budget in enumerate(per_worker):
                    if budget <= 0:
                        continue
                    payloads.append({
                        "spec": self.spec.to_json(),
                        "config": vars(cfg),
                        "coverage": coverage_doc,
                        "corpus": corpus_docs,
                        "budget": budget,
                        "rng_seed": (cfg.seed * 1_000_003
                                     + w * 10_007 + round_no * 101 + 1),
                        "strategy_seed": cfg.seed + 7919 * (w + 1),
                        "run_index_start": run_index[w],
                    })
                results = pool.map(_pool_worker, payloads)
                # Merge in worker order: coverage merge is commutative
                # and the corpus is fingerprint-keyed, so the merged
                # state is order-independent; iterating in a fixed
                # order just makes the *report* deterministic too.
                for w, res in enumerate(results):
                    total_runs += res["runs"]
                    run_index[w] += res["runs"]
                    self.coverage.merge(
                        CoverageMap.from_json(res["coverage"]))
                    for doc in res["new_schedules"]:
                        self.corpus.add(Schedule.from_json(doc))
                    for doc, off in zip(res["failures"],
                                        res["fail_offsets"]):
                        self._process_failure(
                            target, Schedule.from_json(doc),
                            total_runs, findings)
                round_no += 1
        return total_runs
