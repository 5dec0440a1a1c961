"""A seeded ordering bug: hand-rolled notification without the release
fence.

A producer (image 0) writes a value into a cell on image 1 with
``copy_async``, then tells the consumer the cell is ready.  The *correct*
CAF 2.0 idiom is ``event_notify``, whose release semantics (§III-B.4a)
hold the notification until the copy's remote effects are visible.  This
kernel instead posts the ready flag with a raw ``machine.post_event`` —
a hand-rolled notification that skips the release fence, the classic
"flag before data" mistake.

Under the baseline schedule the bug is invisible: the data message is
injected before the flag message on the same 0→1 link, and FIFO per-link
delivery lands it first every time.  Only a schedule that lags the data
message behind the flag — exactly what the exploration subsystem's "lag"
choice points can do — makes the consumer read a stale cell.  That makes
this app the acceptance target for the explorer: strategies must find
the interleaving, and the minimized schedule must replay it.

The invariant (checked by :func:`ordering_invariant` or the ``ok`` field
of the result): each round the consumer observes the freshly produced
value, ``round + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

import numpy as np


@dataclass
class OrderingBugConfig:
    """``rounds`` produce/consume handshakes (each one a chance for the
    flag to outrun the data)."""

    rounds: int = 4

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass
class OrderingBugResult:
    sim_time: float
    rounds: int
    observed: List[int]
    expected: List[int]
    ok: bool
    races: int = 0


def obug_kernel(img, config: OrderingBugConfig) -> Generator[Any, Any, list]:
    """SPMD main program; images beyond 0 and 1 just participate in the
    final barrier."""
    machine = img.machine
    cell = machine.coarray_by_name("obug_cell")
    ready = machine.event_by_name("obug_ready")
    ack = machine.event_by_name("obug_ack")
    observed: list = []

    if img.rank == 0:
        for r in range(config.rounds):
            payload = np.full(1, r + 1, dtype=np.int64)
            img.copy_async(cell.ref(1), payload)
            # BUG (seeded): a hand-rolled ready flag.  img.event_notify
            # would hold this post until the copy's remote effects are
            # visible; posting the counter directly races the flag
            # against the data on the same link.
            machine.post_event(ready, 1, 0)
            yield from img.event_wait(ack)
    elif img.rank == 1:
        for r in range(config.rounds):
            yield from img.event_wait(ready)
            value = img.local_read(cell.ref(img.rank))
            observed.append(int(np.asarray(value).ravel()[0]))
            # The ack closes the round, so rounds never overlap: the
            # only race in this program is the seeded flag/data one.
            yield from img.event_notify(ack.ref_for(0))
    yield from img.barrier()
    return observed


def ordering_invariant(machine, results) -> Optional[str]:
    """App-level oracle for :func:`repro.explore.make_spmd_target`:
    a non-empty string when the consumer saw a stale value."""
    observed = results[1]
    expected = list(range(1, len(observed) + 1))
    if observed != expected:
        return (f"consumer observed stale data: {observed} "
                f"(expected {expected})")
    return None


def run_ordering_bug(n_images: int = 2,
                     config: Optional[OrderingBugConfig] = None,
                     params=None, seed: int = 0, faults=None,
                     racecheck: bool = False,
                     schedule=None) -> OrderingBugResult:
    """Run the app once (by default under the baseline schedule, where
    the bug never fires)."""
    from repro.runtime.program import run_spmd

    if n_images < 2:
        raise ValueError("ordering_bug needs at least 2 images")
    config = config if config is not None else OrderingBugConfig()

    def setup(machine):
        machine.coarray("obug_cell", shape=1, dtype=np.int64)
        machine.make_event(name="obug_ready")
        machine.make_event(name="obug_ack")

    machine, results = run_spmd(obug_kernel, n_images, params=params,
                                seed=seed, args=(config,), setup=setup,
                                faults=faults, racecheck=racecheck,
                                schedule=schedule)
    observed = results[1]
    expected = list(range(1, config.rounds + 1))
    return OrderingBugResult(
        sim_time=machine.sim.now,
        rounds=config.rounds,
        observed=observed,
        expected=expected,
        ok=observed == expected,
        races=(len(machine.racecheck.races) if racecheck else 0),
    )


def make_ordering_bug_target(n_images: int = 2,
                             config: Optional[OrderingBugConfig] = None,
                             params=None, seed: int = 0, faults=None,
                             racecheck: bool = False):
    """The explorer target for this app: fresh machine per schedule,
    failing on the stale-read invariant (and on race reports when
    ``racecheck`` is on).  Passing ``faults`` — typically a plan whose
    ``crash_choice``/``partition_choice`` menus turn fault timing into
    schedule choice points — composes chaos with message ordering in
    one search space."""
    from repro.explore.explorer import make_spmd_target

    if n_images < 2:
        raise ValueError("ordering_bug needs at least 2 images")
    config = config if config is not None else OrderingBugConfig()

    def setup(machine):
        machine.coarray("obug_cell", shape=1, dtype=np.int64)
        machine.make_event(name="obug_ready")
        machine.make_event(name="obug_ack")

    return make_spmd_target(
        obug_kernel, n_images, setup=setup, args=(config,), params=params,
        seed=seed, faults=faults, racecheck=racecheck,
        invariant=ordering_invariant,
    )
