"""The six benchmark workloads: inputs from a seed, one run, one oracle.

Each workload is built from ``(seed, quick)`` — the seed drives the
machine seed, the RandomAccess stream offset, the halo data, the
collective operands and the fault plan; the UTS tree stays the paper's
seed 19 because tree size swings wildly with it — and offers

- ``run()``: one repetition of the SPMD program, start to verified result;
- ``check(result, machine)``: the oracle, ``(ops_attempted, ops_failed)``.

Sizes are chosen so that one repetition takes about a second on the
reference sandbox; ``quick`` halves them for smoke runs, whose numbers
are not comparable with full runs.

Simulated machines get 2 % wire-latency jitter drawn from the machine
seed: it is what makes the seed matter to the simulated network at all
(on the jitter-free default the RandomAccess time-to-solution is the same
for every stream offset), and it costs one rng draw per message.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import FailureConfig, FaultPlan, MachineParams, run_spmd
from repro.apps.randomaccess import (RAConfig, reference_table,
                                     run_randomaccess)
from repro.apps.uts import (TreeParams, UTSConfig, run_uts,
                            sequential_tree_size)

JITTER = 0.02


def sim_params(n_images: int, **kwargs) -> MachineParams:
    return MachineParams.uniform(n_images, jitter=JITTER, **kwargs)


class Probe:
    """Remembers the machine of the latest simulated run and when its
    last main program returned — the run functions of ``repro.apps`` hand
    back results, not machines, and ``sim.now`` keeps advancing while
    failure-detector timers drain after the solution is known."""

    def __init__(self) -> None:
        self.machine = None
        self.solved_at = 0.0

    def install(self) -> None:
        from repro.runtime.program import Machine

        launch = Machine.launch
        probe = self

        @functools.wraps(launch)
        def probed_launch(machine, kernel, args=()):
            tasks = launch(machine, kernel, args=args)
            probe.machine = machine
            probe.solved_at = 0.0

            def main_done(_future):
                probe.solved_at = max(probe.solved_at, machine.sim.now)

            for task in tasks:
                task.done_future.add_done_callback(main_done)
            return tasks

        Machine.launch = probed_launch


class Workload:
    """What every workload declares; see the module docstring."""

    name: str
    #: one line on why the benchmark has this workload
    why: str
    #: the application work unit that ``work_per_s`` counts
    unit: str
    backend = "sim"
    #: "cal" (CPU-bound: nominal seconds) or "wall" (latency-bound)
    timebase = "cal"

    def sim_time(self, result, probe) -> float:
        """Simulated seconds until the last main program returned."""
        return probe.solved_at


# --------------------------------------------------------------------- #
# RandomAccess, function shipping — both backends
# --------------------------------------------------------------------- #

class _RaShip(Workload):
    unit = "update"
    n_images = 64
    updates = 128

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.config = RAConfig(
            updates_per_image=self.updates // 2 if quick else self.updates,
            bunch_size=64, stream_offset=999_983 + seed)

    @functools.cached_property
    def checksum(self) -> int:
        """Oracle material is built on first use, in ``check``: a
        ``--setup-only`` interpreter must not pay for it."""
        return int(np.bitwise_xor.reduce(
            reference_table(self.n_images, self.config)))

    def run(self):
        params = (sim_params(self.n_images) if self.backend == "sim"
                  else None)
        return run_randomaccess(self.n_images, self.config, params=params,
                                seed=self.seed, verify=True,
                                backend=self.backend)

    def check(self, result, machine=None):
        attempted = result.total_updates
        if result.checksum != self.checksum and not result.errors:
            return attempted, attempted
        return attempted, min(attempted, result.errors)


class RaShipSim(_RaShip):
    name = "ra_ship_sim"
    why = ("one spawn per update, one finish per 64: the spawn, AM, "
           "transport and finish-accounting path does nearly all the work")


class RaShipProc(_RaShip):
    name = "ra_ship_proc"
    timebase = "wall"
    why = ("the same program on 2 real processes: pickling per frame, "
           "queue hops and the progress thread do the work, the simulator "
           "none")
    backend = "process"
    n_images = 2
    updates = 6144

    @functools.cached_property
    def twin(self):
        """The same program and inputs on the simulator (untimed, once)."""
        return run_randomaccess(self.n_images, self.config, seed=self.seed,
                                params=sim_params(self.n_images))

    @functools.cached_property
    def checksum(self) -> int:
        """The checksum must equal the simulator's."""
        return self.twin.checksum

    def sim_time(self, result, probe) -> float:
        """The process backend has no modelled clock; report the
        simulator twin's, so the metric exists for every workload."""
        return self.twin.sim_time

    def setup_only(self) -> None:
        """Fork, handshake and join a no-op kernel over the same table."""
        from repro.apps.randomaccess import _ra_setup
        from repro.backend.parallel import run_spmd_process

        def setup(machine):
            machine.scratch["ra.setup_config"] = self.config
            _ra_setup(machine)

        run_spmd_process(_noop_kernel, self.n_images, seed=self.seed,
                         setup=setup)


def _noop_kernel(img):
    return 0
    yield  # a kernel is a generator function


# --------------------------------------------------------------------- #
# UTS — clean, and under message loss with recovery armed
# --------------------------------------------------------------------- #

class UtsSim(Workload):
    name = "uts_sim"
    unit = "node"
    why = ("work stealing and lifelines under one long finish, with a "
           "SHA-1 per node: shows whether a layer gain survives a real app")
    n_images = 64
    chaos = False

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.config = UTSConfig(tree=TreeParams(max_depth=6 if quick else 7))

    @functools.cached_property
    def tree_size(self) -> int:
        return sequential_tree_size(self.config.tree)

    def run(self):
        if not self.chaos:
            return run_uts(self.n_images, self.config, seed=self.seed,
                           params=sim_params(self.n_images))
        return run_uts(
            self.n_images, self.config, seed=self.seed,
            params=sim_params(self.n_images, reliable=True),
            faults=FaultPlan(drop=0.05, duplicate=0.02, seed=self.seed),
            failure_detection=FailureConfig(recover=True))

    def check(self, result, machine=None):
        attempted = self.tree_size
        failed = abs(result.total_nodes - attempted)
        if self.chaos and (result.retransmits == 0 or result.failed_images
                           or machine.stats["fail.confirmed"]):
            failed = attempted
        return attempted, min(attempted, failed)


class UtsChaosSim(UtsSim):
    name = "uts_chaos_sim"
    why = ("the same app with 5 % drops and 2 % duplicates: acks, "
           "retransmit timers, dedup, heartbeats and ft_epoch are on the "
           "path and bypassed everywhere else")
    n_images = 32
    chaos = True


# --------------------------------------------------------------------- #
# 1-D stencil with asynchronous halo exchange (benchmark-owned kernel)
# --------------------------------------------------------------------- #

def _halo_start(seed: int, rank: int, cells: int) -> np.ndarray:
    return np.random.default_rng([seed, rank]).random(cells)


def _halo_kernel(img, cells: int, steps: int, seed: int):
    """Per step: put my last cell into the right neighbour's halo, get
    the right neighbour's first cell, overlap the interior update, one
    cofence, then pairwise events.  Halo slots alternate by step parity,
    so no barrier is needed: a neighbour can run at most one step ahead
    (it needs my next ``pub`` / ``arrived`` post to go further)."""
    machine = img.machine
    halo_lo = machine.coarray_by_name("halo_lo")
    edge = machine.coarray_by_name("edge")
    pub = machine.event_by_name("pub")
    arrived = machine.event_by_name("arrived")
    left = (img.rank - 1) % img.nimages
    right = (img.rank + 1) % img.nimages
    my_lo = halo_lo.local_at(img.rank)
    my_edge = edge.local_at(img.rank)
    hi = np.empty(1)
    u = _halo_start(seed, img.rank, cells)
    for step in range(steps):
        slot = slice(step & 1, (step & 1) + 1)
        my_edge[slot] = u[0]
        yield from img.event_notify(pub.at(left))
        img.copy_async(halo_lo.ref(right, slot), u[-1:])
        yield from img.event_wait(pub)
        img.copy_async(hi, edge.ref(right, slot))
        yield from img.compute(cells * 2e-9)
        interior = (u[:-2] + u[1:-1] + u[2:]) / 3.0
        yield from img.cofence()
        yield from img.event_notify(arrived.at(right))
        yield from img.event_wait(arrived)
        new = np.empty_like(u)
        new[1:-1] = interior
        new[0] = (my_lo[slot][0] + u[0] + u[1]) / 3.0
        new[-1] = (u[-2] + u[-1] + hi[0]) / 3.0
        u = new
    return u


def _halo_setup(machine) -> None:
    machine.coarray("halo_lo", shape=2)
    machine.coarray("edge", shape=2)
    machine.make_event(name="pub")
    machine.make_event(name="arrived")


def halo_reference(seed: int, n_images: int, cells: int,
                   steps: int) -> np.ndarray:
    """The same stencil on one array (periodic boundaries)."""
    u = np.concatenate([_halo_start(seed, r, cells)
                        for r in range(n_images)])
    for _ in range(steps):
        u = (np.roll(u, 1) + u + np.roll(u, -1)) / 3.0
    return u


class HaloSim(Workload):
    name = "halo_sim"
    unit = "copy"
    why = ("one copy_async put and one get per step, a cofence and four "
           "event operations: copy, cofence and events dominate, spawn "
           "does nothing")
    n_images = 64
    cells = 16

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.steps = 30 if quick else 60

    def run(self):
        _machine, strips = run_spmd(
            _halo_kernel, self.n_images, params=sim_params(self.n_images),
            seed=self.seed, setup=_halo_setup,
            args=(self.cells, self.steps, self.seed))
        return np.concatenate(strips)

    def check(self, result, machine=None):
        attempted = 2 * self.n_images * self.steps
        expected = halo_reference(self.seed, self.n_images, self.cells,
                                  self.steps)
        wrong = int(np.count_nonzero(np.abs(result - expected) > 1e-9))
        return attempted, min(attempted, wrong)


# --------------------------------------------------------------------- #
# Collectives, asynchronous and blocking (benchmark-owned kernel)
# --------------------------------------------------------------------- #

def _coll_kernel(img, rounds: int, base: int):
    n = img.nimages
    out = []
    for r in range(rounds):
        total = np.zeros(1)
        root = r % n
        buf = (np.full(4, float(base + 7 * r + 1)) if img.rank == root
               else np.zeros(4))
        yield from img.finish_begin()
        img.allreduce_async(float(img.rank + r + base), result_buf=total)
        img.broadcast_async(buf, root=root)
        img.barrier_async()
        yield from img.finish_end()
        top = yield from img.allreduce(img.rank * (r + 1) + base, op="max")
        everyone = None
        if r % 4 == 3:
            everyone = yield from img.allgather(img.rank ^ r)
        out.append((float(total[0]), float(buf.sum()), top, everyone))
    return out


class CollSim(Workload):
    name = "coll_sim"
    unit = "collective"
    why = ("asynchronous collectives inside finish, blocking allreduce "
           "and allgather: both collective implementations and the finish "
           "allreduce dominate, spawn and copy are idle")
    n_images = 128

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.rounds = 4 if quick else 8
        self.base = seed % 1000

    def run(self):
        _machine, per_image = run_spmd(
            _coll_kernel, self.n_images, params=sim_params(self.n_images),
            seed=self.seed, args=(self.rounds, self.base))
        return per_image

    def expected_round(self, r: int) -> tuple:
        """Closed forms of round ``r`` (the barrier returns no value)."""
        n, base = self.n_images, self.base
        return (float(n * (n - 1) // 2 + n * (r + base)),
                4.0 * (base + 7 * r + 1),
                (n - 1) * (r + 1) + base,
                [j ^ r for j in range(n)] if r % 4 == 3 else None)

    def check(self, result, machine=None):
        attempted = failed = 0
        for r in range(self.rounds):
            expected = self.expected_round(r)
            # allreduce_async, broadcast_async, blocking allreduce, and
            # the allgather when there is one; the barrier has no value
            # of its own — it counts as failed when its finish did not
            # hold back the two results it fences.
            values = [[image[r][k] for image in result] for k in range(4)]
            ok = [all(v == expected[k] for v in values[k]) for k in range(4)]
            verdicts = [ok[0], ok[1], ok[0] and ok[1], ok[2]]
            if expected[3] is not None:
                verdicts.append(ok[3])
            attempted += len(verdicts)
            failed += verdicts.count(False)
        return attempted, failed


WORKLOADS = {cls.name: cls for cls in (
    RaShipSim, HaloSim, UtsSim, CollSim, UtsChaosSim, RaShipProc)}
