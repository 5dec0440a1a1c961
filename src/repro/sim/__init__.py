"""Deterministic discrete-event simulation substrate.

This package provides the machine model under the CAF 2.0 runtime: a
time-ordered event loop (:mod:`repro.sim.engine`), cooperative tasks written
as Python generators (:mod:`repro.sim.tasks`), reproducible per-image random
streams (:mod:`repro.sim.rng`), and measurement probes
(:mod:`repro.sim.trace`).

The simulation is fully deterministic: events at equal timestamps fire in
the order they were scheduled, and all randomness flows through seeded
:class:`numpy.random.Generator` streams.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.tasks import (
    Future,
    Delay,
    Task,
    TaskFailed,
    Semaphore,
    Condition,
    all_of,
    any_of,
)
from repro.sim.rng import RngPool
from repro.sim.trace import Stats, IntervalAccumulator

__all__ = [
    "Simulator",
    "SimulationError",
    "Future",
    "Delay",
    "Task",
    "TaskFailed",
    "Semaphore",
    "Condition",
    "all_of",
    "any_of",
    "RngPool",
    "Stats",
    "IntervalAccumulator",
]
