"""The cofence micro-benchmark (paper Fig. 11 / Fig. 12).

A producer (image 0) repeatedly sends an 80-byte buffer to 5 random
images with ``copy_async``, then prepares the buffer for the next round.
Before it may overwrite the buffer it must synchronize — and the paper
compares three ways of doing so, from weakest (cheapest) to strongest:

- **cofence** — wait for *local data completion* only: the NIC has read
  the buffer; delivery is still in flight.
- **events** — wait for *local operation completion*: each copy's
  destination event reports delivery, one network latency away.
- **finish** — wait for *global completion* of the round: a collective
  finish block whose termination detection costs O(log p) latencies and
  involves every image.

Fig. 12's result — cofence < events < finish, with the finish gap
growing with core count — falls out of exactly these three completion
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

VARIANTS = ("cofence", "events", "finish")

#: size of the copied buffer, bytes (paper: 80)
COPY_BYTES = 80
#: destinations per round (paper: 5)
FANOUT = 5
#: simulated cost of producing the next round's buffer, seconds
PRODUCE_COST = 1.0e-6


@dataclass
class PCConfig:
    """Micro-benchmark parameters (paper: 10^6 iterations; scaled)."""

    iterations: int = 200
    variant: str = "cofence"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected {VARIANTS}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")


@dataclass
class PCResult:
    sim_time: float
    variant: str
    iterations: int
    copies: int
    #: race-detector findings (0 unless racecheck was enabled AND racy)
    races: int = 0


def pc_kernel(img, config: PCConfig) -> Generator[Any, Any, float]:
    """SPMD main program of Fig. 11."""
    machine = img.machine
    inbuf = machine.coarray_by_name("pc_inbuf")
    ev = machine.event_by_name("pc_ev") if config.variant == "events" else None
    src = np.zeros(COPY_BYTES, dtype=np.uint8)

    yield from img.finish_begin()
    for _ in range(config.iterations):
        if config.variant == "finish":
            yield from img.finish_begin()
        if img.rank == 0:
            for _ in range(FANOUT):
                target = int(img.rng.integers(1, img.nimages))
                if config.variant == "events":
                    img.copy_async(inbuf.ref(target), src,
                                   dest_event=ev.ref_for(img.rank))
                else:
                    img.copy_async(inbuf.ref(target), src)
            if config.variant == "cofence":
                yield from img.cofence()
            elif config.variant == "events":
                yield from img.event_wait(ev, count=FANOUT)
        if config.variant == "finish":
            yield from img.finish_end()
        if img.rank == 0:
            # produce_work_next_rnd(): the buffer is reused immediately —
            # legal because the chosen synchronization guaranteed at
            # least local data completion.  The instrumented write is how
            # the race detector checks exactly that.
            yield from img.compute(PRODUCE_COST)
            img.local_write(src, (src + 1) % 251)
    yield from img.finish_end()
    return img.now


def run_producer_consumer(n_images: int, config: Optional[PCConfig] = None,
                          params=None, seed: int = 0,
                          faults=None, racecheck: bool = False) -> PCResult:
    """Run one variant; returns the simulated execution time."""
    from repro.runtime.program import run_spmd

    config = config if config is not None else PCConfig()

    def setup(machine):
        machine.coarray("pc_inbuf", shape=COPY_BYTES, dtype=np.uint8)
        machine.make_event(name="pc_ev")

    machine, results = run_spmd(pc_kernel, n_images, params=params,
                                seed=seed, args=(config,), setup=setup,
                                faults=faults, racecheck=racecheck)
    return PCResult(
        sim_time=max(results),
        variant=config.variant,
        iterations=config.iterations,
        copies=machine.stats["copy.initiated"],
        races=(machine.racecheck.race_count if racecheck else 0),
    )
