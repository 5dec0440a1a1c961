"""A seeded crash-recovery bug: at-least-once redo without idempotency.

Three images play a miniature work-queue: a *worker* (image 1) drains
a statically-assigned batch of work items; the effect of each item is a
``spawn`` to a *store* (image 2) that increments an accumulator cell.
Completion is accounted by hand — after draining the batch the worker
posts one ``done`` event per item to the *coordinator* (image 0), which
polls the counter while watching the failure detector.

The *correct* CAF 2.0 idiom is implicit completion: run the spawns
inside a ``finish`` and let the runtime's ledger (DESIGN §11) reconcile
exactly-once re-execution after a crash.  This kernel instead hand-rolls
at-least-once recovery: when the detector suspects the worker, the
coordinator re-applies every item the done counter has not accounted
for.  That redo is **not idempotent** — the first half of the seeded
bug.  The second half is the reconciler: small drifts of the store
accumulator (up to ``items - 1``) are written off as acceptable
wobble, so a violation only *surfaces* when every in-flight completion
record dies with the worker — i.e. when the crash lands between
*delivery* (all the applies landed at the store) and *completion
accounting* (none of the done posts reached the coordinator).

Under the baseline schedule no candidate time in the crash menu sits in
that gap: the done posts land within a fraction of a wire latency of
their applies.  Only delivery-lag choices that hold *every* done post
back past the crash candidate open it — a conjunction of one ``"fault"``
menu choice and ``items`` independent ``"lag"`` choices.  Crucially the
conjunction is *incremental and observable*: each additional lagged
done post strands one more unaccounted item, so the recovery path
re-applies one more spawn — more ``spawn:0->2`` choice points in the
recorded stream — long before the drift crosses the reconciler's
write-off threshold.  A coverage-guided searcher climbs that ladder
stage by stage; a blind random walk has to roll the whole conjunction
at once.  This app is therefore the acceptance target for the fuzzing
service, as ``ordering_bug`` was for the single-schedule explorer.

The invariant: the store accumulator must end within the reconciler's
tolerance of ``items`` — the write-off is symmetric, so only the full
re-apply-everything conjunction can push the drift out of bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

COORDINATOR = 0
WORKER = 1
STORE = 2

#: Cost modelled for one store-side apply (keeps the RMW a single
#: continuation slice: the read-modify-write below never yields).
APPLY_COST = 1e-6


@dataclass
class RecoveryBugConfig:
    """``items`` work items, shipped as one batch; the worker spends
    ``work_cost`` modelled seconds per item.  The coordinator polls the
    done counter every ``poll`` seconds while watching the failure
    detector, and its reconciler writes off accumulator drift up to
    ``items - 1`` as wobble (the seeded bug's second half)."""

    items: int = 5
    work_cost: float = 6e-6
    poll: float = 2e-5

    def __post_init__(self) -> None:
        if self.items < 1:
            raise ValueError("items must be >= 1")
        if self.work_cost <= 0 or self.poll <= 0:
            raise ValueError("work_cost and poll must be positive")

    @property
    def drift_tolerance(self) -> int:
        return self.items - 1


@dataclass
class RecoveryBugResult:
    sim_time: float
    items: int
    store: int
    done_count: int
    recovered: bool
    ok: bool


def _apply(img, item: int) -> Generator[Any, Any, None]:
    """The effect of one work item: bump the store accumulator.  A plain
    read-modify-write — re-executing it is visible, which is exactly
    what the seeded recovery path gets wrong."""
    yield from img.compute(APPLY_COST)
    store = img.machine.coarray_by_name("rbug_store")
    ref = store.ref(img.rank)
    value = np.asarray(img.local_read(ref))
    img.local_write(ref, value + 1)


def _work_batch(img, items: int, work_cost: float) -> Generator[Any, Any,
                                                                None]:
    """The worker's batch: drain the queue (compute each item, ship its
    effect to the store), then report completions."""
    machine = img.machine
    for item in range(items):
        yield from img.compute(work_cost)
        yield from img.spawn(_apply, STORE, item)
    # BUG (seeded): completion is accounted only now, one post per item,
    # the moment the applies have been *issued* — hand-rolled done posts
    # instead of explicit completion chained off each apply's execution.
    # If this image dies after the applies land at the store but before
    # these posts reach the coordinator, every item reads as unfinished
    # and gets re-applied.
    done = machine.event_by_name("rbug_done")
    for item in range(items):
        machine.post_event(done, COORDINATOR, img.rank)


def rbug_kernel(img, config: RecoveryBugConfig) -> Generator[Any, Any, Any]:
    """SPMD main program.  The worker drains its statically-assigned
    batch; the store is passive (its applies arrive as spawns); the
    coordinator polls the done counter.  No closing barrier: a crashed
    worker must not deadlock the survivors."""
    machine = img.machine
    if img.rank == WORKER:
        yield from _work_batch(img, config.items, config.work_cost)
        return None
    if img.rank != COORDINATOR:
        return None
    done = machine.event_by_name("rbug_done")
    recovered = False
    while done.count_at(COORDINATOR) < config.items:
        if img.image_failed(WORKER):
            # Hand-rolled at-least-once recovery: re-apply every item
            # the done counter has not accounted for.  Count-based and
            # non-idempotent — the seeded bug's first half.
            missing = config.items - done.count_at(COORDINATOR)
            for k in range(missing):
                yield from img.spawn(_apply, STORE, -(k + 1))
            recovered = True
            break
        yield from img.compute(config.poll)
    return {"done": done.count_at(COORDINATOR), "recovered": recovered}


def _store_value(machine) -> int:
    store = machine.coarray_by_name("rbug_store")
    return int(np.asarray(store.local_at(STORE)).ravel()[0])


def make_recovery_invariant(config: RecoveryBugConfig):
    """App-level oracle, mirroring the sloppy reconciler: accumulator
    drift up to ``drift_tolerance`` in *either* direction is written off
    as wobble (slow applies still in flight, the odd duplicate).  Above
    ``items + tolerance`` means the recovery path re-applied *every*
    already-delivered item — the full delivery-vs-accounting gap; below
    ``items - tolerance`` would mean nearly all effects vanished while
    accounted done (unreachable here; reported for completeness)."""
    items = config.items
    tolerance = config.drift_tolerance

    def recovery_invariant(machine, results) -> Optional[str]:
        value = _store_value(machine)
        if value > items + tolerance:
            return (f"store double-counted re-executed applies: "
                    f"{value} > {items} + tolerance {tolerance}")
        if value < items - tolerance:
            return (f"store lost updates accounted as done: "
                    f"{value} < {items} - tolerance {tolerance}")
        return None

    return recovery_invariant


def setup_recovery_bug(machine) -> None:
    machine.coarray("rbug_store", shape=1, dtype=np.int64)
    machine.make_event(name="rbug_done")


def _failure_config():
    from repro.runtime.failure import FailureConfig
    return FailureConfig(period=2e-5, timeout=8e-5, recover=True)


def run_recovery_bug(config: Optional[RecoveryBugConfig] = None,
                     params=None, seed: int = 0, faults=None,
                     schedule=None) -> RecoveryBugResult:
    """Run the app once (by default under the baseline schedule with no
    crash, where the accounting is never wrong)."""
    from repro.runtime.program import run_spmd

    config = config if config is not None else RecoveryBugConfig()
    machine, results = run_spmd(
        rbug_kernel, 3, params=params, seed=seed, args=(config,),
        setup=setup_recovery_bug, faults=faults, schedule=schedule,
        failure_detection=_failure_config())
    store = _store_value(machine)
    coord = results[COORDINATOR] or {}
    return RecoveryBugResult(
        sim_time=machine.sim.now,
        items=config.items,
        store=store,
        done_count=int(coord.get("done", 0)),
        recovered=bool(coord.get("recovered", False)),
        ok=store == config.items,
    )


def default_crash_menu(config: Optional[RecoveryBugConfig] = None) -> tuple:
    """The worker-crash menu the acceptance experiment searches: mostly
    decoys bracketing the whole protocol (early crashes recover cleanly;
    mid-batch crashes drift within the reconciler's tolerance; late ones
    land after accounting), plus one candidate just past the baseline
    done-post delivery times — reachable only when delivery-lag choices
    hold every done post back past it.  Times are empirical constants
    for the default ``MachineParams`` timeline (see
    tests/apps/test_recovery_bug.py, which pins them against the
    recorded schedule); the search must not know which entries matter.
    """
    config = config if config is not None else RecoveryBugConfig()
    t_drain = config.items * config.work_cost
    magic = t_drain + 3.25e-6             # past every baseline done
    decoys = [1e-6]
    decoys += [(k + 0.45) * config.work_cost for k in range(config.items)]
    decoys += [t_drain + 1e-6,            # mid completion-post burst
               t_drain + 8e-6, t_drain + 2e-5, t_drain + 5e-5,
               t_drain + 1.1e-4, t_drain + 1.9e-4, t_drain + 3e-4]
    return tuple(sorted(set(decoys + [magic])))


def make_recovery_bug_target(config: Optional[RecoveryBugConfig] = None,
                             params=None, seed: int = 0, faults=None,
                             crash_menu: Optional[tuple] = None):
    """The fuzzing target: fresh machine per schedule, heartbeat failure
    detection on, failing on the store-accumulator invariant.  By
    default the target carries a :func:`default_crash_menu` worker-crash
    menu, so crash timing rides the recorded choice stream alongside
    message ordering; pass ``faults`` to compose further chaos (the
    menu is added to a clone, the caller's plan is untouched)."""
    from repro.explore.explorer import make_spmd_target
    from repro.net.faults import FaultPlan

    config = config if config is not None else RecoveryBugConfig()
    plan = faults.clone() if faults is not None else FaultPlan()
    if crash_menu is None:
        crash_menu = default_crash_menu(config)
    if crash_menu:
        plan.crash_choice(WORKER, crash_menu)
    return make_spmd_target(
        rbug_kernel, 3, setup=setup_recovery_bug, args=(config,),
        params=params, seed=seed, faults=plan,
        invariant=make_recovery_invariant(config),
        failure_detection=_failure_config(),
    )
