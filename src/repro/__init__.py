"""repro — a reproduction of *Managing Asynchronous Operations in Coarray
Fortran 2.0* (Yang, Murthy, Mellor-Crummey; IPDPS 2013).

A CAF 2.0-style PGAS runtime — asynchronous copies, function shipping,
asynchronous collectives, events, ``cofence`` and ``finish`` — running on
a deterministic discrete-event simulation of a distributed-memory
machine.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the per-figure reproduction record.

Quick start::

    from repro import run_spmd, MachineParams

    def kernel(img):
        yield from img.finish_begin()
        # ... copy_async / spawn / broadcast_async ...
        yield from img.finish_end()

    machine, results = run_spmd(kernel, n_images=8)
"""

from repro.net.faults import (
    FaultPlan,
    LinkFlap,
    NicStall,
    Partition,
    Straggler,
)
from repro.net.topology import MachineParams
from repro.net.transport import PeerFailedError, RetryExhaustedError
from repro.sim.engine import LivenessError
from repro.runtime import (
    ANY,
    FailureConfig,
    ImageFailureError,
    READ,
    WRITE,
    Coarray,
    CoarrayRef,
    DeadlockError,
    EventRef,
    EventVar,
    Image,
    LockVar,
    Machine,
    Team,
    run_spmd,
)
from repro.core.completion import AsyncOp
from repro.core.finish import FinishError

__version__ = "1.0.0"

__all__ = [
    "FaultPlan",
    "NicStall",
    "Straggler",
    "Partition",
    "LinkFlap",
    "RetryExhaustedError",
    "PeerFailedError",
    "FailureConfig",
    "FinishError",
    "ImageFailureError",
    "LivenessError",
    "MachineParams",
    "ANY",
    "READ",
    "WRITE",
    "Coarray",
    "CoarrayRef",
    "DeadlockError",
    "EventRef",
    "EventVar",
    "Image",
    "LockVar",
    "Machine",
    "Team",
    "run_spmd",
    "AsyncOp",
    "__version__",
]
