"""The CAF 2.0 runtime: images, teams, coarrays, events, locks, and the
relaxed memory model's bookkeeping."""

from repro.runtime.team import Team
from repro.runtime.coarray import Coarray, CoarrayRef, ImageSection
from repro.runtime.event import EventVar, EventRef
from repro.runtime.lock import LockVar
from repro.runtime.memory_model import (
    Activation,
    ReorderOracle,
    READ,
    WRITE,
    ANY,
)
from repro.runtime.failure import (
    FailureConfig,
    FailureService,
    ImageFailureError,
)
from repro.runtime.image import Image, ImageState
from repro.runtime.program import DeadlockError, Machine, run_spmd

__all__ = [
    "FailureConfig",
    "FailureService",
    "ImageFailureError",
    "Team",
    "Coarray",
    "CoarrayRef",
    "ImageSection",
    "EventVar",
    "EventRef",
    "LockVar",
    "Activation",
    "ReorderOracle",
    "READ",
    "WRITE",
    "ANY",
    "Image",
    "ImageState",
    "DeadlockError",
    "Machine",
    "run_spmd",
]
