"""Machine assembly and SPMD program launch.

:class:`Machine` wires the whole stack together — simulator, network,
active messages, registries for teams / coarrays / events /
locks, finish frames and collective states — and owns the services the
core operation modules call into.

:func:`run_spmd` is the main entry point::

    def kernel(img):
        yield from img.barrier()
        return img.rank

    machine, results = run_spmd(kernel, n_images=8)

Every image runs ``kernel`` as its main activation; ``results[i]`` is the
kernel's return value on image i, and ``machine`` exposes the simulated
clock, statistics and busy-time accounting the benchmark harness reads.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.sim.engine import LivenessError, Simulator
from repro.sim.rng import RngPool
from repro.sim.tasks import Task, with_task_note
from repro.sim.trace import IntervalAccumulator, Stats
from repro.net.faults import FaultPlan
from repro.net.topology import MachineParams
from repro.net.transport import Network
from repro.net.flowcontrol import CreditManager
from repro.net.active_messages import AMCategory, AMLayer
from repro.runtime.coarray import Coarray
from repro.runtime.event import EventRef, EventVar
from repro.runtime.image import Image, ImageState
from repro.runtime import lock as lock_mod
from repro.runtime.lock import LockVar
from repro.runtime.team import Team
from repro.core import collectives, copy_async, spawn
from repro.core.finish import (FinishFrame, FinishUsageError,
                               count_delivery_outcome)
from repro.core.termination import ft_epoch, vector_count

_EVENT_POST = "event.post"
_EVENT_FIRE = "event.fire"

#: Handler families by the first component of their handler names: the
#: module whose ``register_handlers(machine)`` installs the family.  One
#: registration path for both backends: a machine knows every protocol
#: from birth and installs a family the first time one of its names is
#: requested or *delivered* there (a worker of a multi-process run can be
#: sent a spawn before it ever spawns).  Installing all of them up front
#: would put 16 handler records — about 3 KB — on every Machine.
_FAMILIES = {"spawn": spawn, "copy": copy_async, "coll": collectives,
             "ft": ft_epoch, "term": vector_count, "lock": lock_mod}


def _member_key(members) -> tuple:
    """Hashable interning key for a team membership.  Ranges key by
    endpoints (tagged so a 2-member tuple can never collide) instead of
    expanding to a p-wide tuple."""
    if isinstance(members, range):
        return ("r", members.start, members.stop)
    return tuple(members)


class DeadlockError(RuntimeError):
    """The event queue drained while SPMD main programs were blocked."""


class Machine:
    """One simulated distributed machine running the CAF 2.0 runtime."""

    def __init__(self, n_images: int, params: Optional[MachineParams] = None,
                 seed: int = 0, tracer=None,
                 faults: Optional[FaultPlan] = None,
                 racecheck: bool = False, schedule=None,
                 failure_detection=None, backend: str = "sim",
                 conduit=None, local_ranks: Optional[Sequence[int]] = None):
        if params is None:
            params = MachineParams.uniform(n_images)
        if params.n_images != n_images:
            raise ValueError(
                f"params describe {params.n_images} images, asked for "
                f"{n_images}"
            )
        if backend not in ("sim", "process"):
            raise ValueError(
                f"backend must be 'sim' or 'process', got {backend!r}")
        self.n_images = n_images
        self.params = params
        self.seed = seed
        self.stats = Stats()
        self.tracer = tracer
        if tracer is not None:
            tracer.label_tracks(n_images)
        # rng streams: one per image, plus one for network jitter and one
        # for fault injection (SeedSequence children are independent of
        # pool size, so the extra stream leaves image streams untouched)
        self.rng_pool = RngPool(seed, n_images + 2)
        #: the fault plan, or None — what ``Image.compute`` and the
        #: failure detector consult for stragglers
        self.faults = faults
        # The one place that knows there are two (substrate, transport)
        # pairs (DESIGN.md §14.1); what a pair cannot do is refused by
        # the part that would have had to do it.
        if backend == "process":
            from repro.backend.realtime import RealtimeScheduler
            from repro.backend.transport import ProcessTransport

            if conduit is None or local_ranks is None:
                raise ValueError(
                    "backend='process' machines are built by the process "
                    "launcher (repro.backend.parallel) with a conduit and "
                    "their local rank set; use run_spmd(..., "
                    "backend='process') or ProcessRunner")
            self.sim = RealtimeScheduler()
            self.network = ProcessTransport(self.sim, params, self.stats,
                                            conduit, self, faults)
            #: world ranks whose main programs THIS machine runs
            self.local_ranks: Sequence[int] = tuple(sorted(local_ranks))
            #: world ranks other machines of this run host (none under
            #: the simulator): how "whole run, or one worker?" is asked
            self.remote_ranks: Sequence[int] = [
                r for r in range(n_images) if r not in self.local_ranks]
        else:
            if faults is not None and faults.seed is None:
                faults.bind(self.rng_pool[n_images + 1])
            self.sim = Simulator()
            self.network = Network(self.sim, params, stats=self.stats,
                                   jitter_rng=self.rng_pool[n_images],
                                   tracer=tracer, faults=faults, seed=seed)
            self.local_ranks = range(n_images)
            self.remote_ranks = ()
        #: schedule-exploration source (DESIGN.md §10), or None.  When
        #: installed, same-instant tie-breaks and delivery lags become
        #: explicit choice points driven by the source; with None the
        #: engine's canonical deterministic order is untouched.
        self.schedule_source = None
        if schedule is not None:
            from repro.explore.schedule import as_schedule_source

            source = as_schedule_source(schedule)
            self.schedule_source = source
            self.sim.set_schedule_source(source)
            self.network.schedule_source = source
        # A drained queue is meaningful only in virtual time: the
        # wall-clock substrate takes the hook and never fires it (its
        # worker is merely idle between messages).
        self.sim.add_drain_hook(self._liveness_check)
        credits = None
        if params.flow_credits is not None:
            credits = CreditManager(self.sim, params.flow_credits,
                                    stats=self.stats)
        self.credits = credits
        self._families = dict(_FAMILIES)
        self.am = AMLayer(self.network, credit_manager=credits,
                          install_family=self._install_family)
        self.busy = IntervalAccumulator(n_images)

        #: world ranks killed by fail-stop crash injection (ground truth;
        #: survivors only learn of a death through the failure detector)
        self.dead_images: set[int] = set()
        #: ground-truth crash times, {rank: sim time} — the detector's
        #: quality metrics (suspect/confirm latency) measure against this
        self.dead_at: dict[int, float] = {}
        #: heartbeat failure detector, or None (crashes then wedge the
        #: machine and surface through the liveness watchdog instead)
        self.failure = None
        if failure_detection:
            from repro.runtime.failure import FailureConfig, FailureService

            config = (failure_detection
                      if isinstance(failure_detection, FailureConfig)
                      else FailureConfig())
            self.failure = FailureService(self, config)
        # Crash scripts: scheduled kills and send-count triggers.  Fault
        # *menus* (crash_choice / partition_choice) resolve against the
        # schedule source first, so crash and partition timing live in
        # the same recorded choice sequence as message ordering.
        self.network.on_crash = self.kill_image
        self.network.count_outcome = count_delivery_outcome
        if faults is not None:
            faults.resolve_choices(self.schedule_source)
            for image, t_crash in sorted(faults.scheduled_crashes().items()):
                self.sim.schedule_at(t_crash, self.kill_image, image)

        # Team ids are allocated per machine (not from Team's process-wide
        # fallback counter) so back-to-back runs in one process produce
        # identical ids in finish-frame keys, AM payloads and traces.
        self.team_world = Team(range(n_images), team_id=0)
        self._team_ids = itertools.count(1)
        self._teams: dict[int, Team] = {self.team_world.id: self.team_world}
        self._teams_by_members: dict[tuple, Team] = {
            _member_key(self.team_world.members): self.team_world
        }
        # Per-rank state is materialized on first touch: a machine built
        # for 8192+ images only pays for the ranks that actually run or
        # communicate (weak-scaling, DESIGN.md §13).
        self._image_states: dict[int, ImageState] = {}
        self._coarrays: dict[str, Coarray] = {}
        self._events: dict[str, EventVar] = {}
        self._locks: dict[str, LockVar] = {}
        self._frames: dict[tuple, Any] = {}
        #: the collective records, (image, team id, seq) -> record;
        #: :mod:`repro.core.collectives` adds and drops them
        self._coll_states: dict[tuple, Any] = {}
        #: open dictionary for cross-module transient state (copy tokens,
        #: detector scratch, lock grants, ...)
        self.scratch: dict = {}
        # AM-argument tokens and anonymous event/lock names: per machine,
        # like team ids, so back-to-back runs send identical values.
        self._tokens = itertools.count(1)
        # Spawn identity stream for recovery idempotency keys.  Each
        # machine strides by n_images from its first hosted rank, so ids
        # stay globally unique without coordination when other machines
        # host the rest (the dedup registry at an executor must
        # distinguish every spawner's spawns; a machine that hosts no
        # rank never spawns).
        self._spawn_ids = itertools.count(next(iter(self.local_ranks), 0),
                                          n_images)
        self._main_tasks: list[Task] = []

        #: happens-before race detector, or None (the default — every
        #: instrumentation hook is guarded by one `is None` test, so a
        #: disabled run pays nothing)
        self.racecheck = None
        if racecheck:
            from repro.analysis.racecheck import RaceDetector
            self.racecheck = RaceDetector(self)

        self.am.register(_EVENT_POST, self._handle_event_post)
        self.am.register(_EVENT_FIRE, self._handle_event_fire)

    def _install_family(self, name: str) -> None:
        """The AM layer's miss hook (see ``_FAMILIES``)."""
        family = self._families.pop(name.partition(".")[0], None)
        if family is not None:
            family.register_handlers(self)

    # ------------------------------------------------------------------ #
    # Registries
    # ------------------------------------------------------------------ #

    def image_state(self, world_rank: int) -> ImageState:
        state = self._image_states.get(world_rank)
        if state is None:
            if not 0 <= world_rank < self.n_images:
                raise IndexError(
                    f"image {world_rank} out of range [0, {self.n_images})"
                )
            state = self._image_states[world_rank] = ImageState(
                self, world_rank)
        return state

    def team_by_id(self, team_id: int) -> Team:
        try:
            return self._teams[team_id]
        except KeyError:
            raise KeyError(f"unknown team id {team_id}") from None

    def intern_team(self, members: Sequence[int],
                    parent: Optional[Team] = None) -> Team:
        """One shared Team object per member set (team_split uses this so
        every member holds the same instance and id).  Contiguous member
        sets canonicalize to a range so block teams — including a re-
        derived world membership — stay O(1) objects (DESIGN.md §13)."""
        if not isinstance(members, range):
            members = list(members)
            if members and members == list(
                    range(members[0], members[0] + len(members))):
                members = range(members[0], members[0] + len(members))
        key = _member_key(members)
        team = self._teams_by_members.get(key)
        if team is None:
            team = Team(members, team_id=next(self._team_ids), parent=parent)
            self._teams_by_members[key] = team
            self._teams[team.id] = team
        return team

    def coarray(self, name: str, shape: Any, dtype: Any = np.float64,
                team: Optional[Team] = None, fill: Any = 0) -> Coarray:
        """Allocate a coarray over ``team`` (default: the world team)."""
        if name in self._coarrays:
            raise ValueError(f"coarray {name!r} already allocated")
        team = team if team is not None else self.team_world
        arr = Coarray(name, team, self.n_images, shape, dtype=dtype,
                      fill=fill)
        self._coarrays[name] = arr
        return arr

    def coarray_by_name(self, name: str) -> Coarray:
        try:
            return self._coarrays[name]
        except KeyError:
            raise KeyError(f"no coarray named {name!r}") from None

    def make_event(self, team: Optional[Team] = None,
                   name: Optional[str] = None) -> EventVar:
        """Create an event variable over ``team`` (default world)."""
        team = team if team is not None else self.team_world
        ev = EventVar(self, team, name=name)
        if ev.name in self._events:
            raise ValueError(f"event {ev.name!r} already exists")
        self._events[ev.name] = ev
        return ev

    def event_by_name(self, name: str) -> EventVar:
        return self._events[name]

    def make_lock(self, team: Optional[Team] = None,
                  name: Optional[str] = None) -> LockVar:
        """Create a lock variable over ``team`` (default world)."""
        team = team if team is not None else self.team_world
        lock = LockVar(self, team, name=name)
        if lock.name in self._locks and self._locks[lock.name] is not lock:
            raise ValueError(f"lock {lock.name!r} already exists")
        self._locks[lock.name] = lock
        return lock

    def lock_by_name(self, name: str) -> LockVar:
        return self._locks[name]

    def next_token(self) -> int:
        return next(self._tokens)

    def next_spawn_id(self) -> int:
        """Machine-global spawn identity, used as the idempotency key
        when recovery re-executes lost shipped functions."""
        return next(self._spawn_ids)

    # ------------------------------------------------------------------ #
    # Fail-stop crashes
    # ------------------------------------------------------------------ #

    def kill_image(self, rank: int) -> None:
        """Fail-stop crash of ``rank`` *now*: halt every task running on
        it (main program, shipped functions, AM handlers, detector),
        drop its in-flight messages and mark its links down.  Idempotent.
        Survivors are NOT told — discovering the death is the failure
        detector's job (or the liveness watchdog's, if detection is
        off)."""
        if rank in self.dead_images:
            return
        if not 0 <= rank < self.n_images:
            raise ValueError(f"cannot crash image {rank}: not in "
                             f"[0, {self.n_images})")
        self.dead_images.add(rank)
        self.dead_at[rank] = self.sim.now
        killed = self.sim.kill_owner(rank)
        self.network.mark_dead(rank)
        self.stats.incr("fail.crashes")
        if self.tracer is not None:
            self.tracer.instant(rank, "fail.crash", self.sim.now,
                                args={"tasks_killed": killed})
        if self.failure is not None:
            self.failure.check_stop()

    # ------------------------------------------------------------------ #
    # Services for the core operation modules
    # ------------------------------------------------------------------ #

    def get_or_create_frame(self, world_rank: int, key: tuple):
        """Finish frame for (image, key); lazily created because shipped
        functions can land before the image enters its own block."""
        full_key = (world_rank, key)
        frame = self._frames.get(full_key)
        if frame is None:
            team_id, seq = key
            frame = FinishFrame(self, world_rank, self.team_by_id(team_id),
                                seq)
            self._frames[full_key] = frame
        return frame

    def post_event(self, event: EventVar, home: int, from_rank: int,
                   count: int = 1) -> None:
        """Post ``event``'s counter on image ``home``, sending a notify AM
        when it lives on a different image than the poster (a holder of
        an :class:`EventRef` passes ``ref.event, ref.world_rank``)."""
        if home == from_rank:
            event.post(home, count)
        else:
            self.am.request_nb(
                from_rank, home, _EVENT_POST, args=(event.name, count),
                category=AMCategory.SHORT, kind="event.post",
            )

    def _handle_event_post(self, ctx, event_name: str, count: int) -> None:
        self._events[event_name].post(ctx.dst, count)

    def when_event(self, ref: EventRef, initiator: int,
                   action: Callable[[], None]) -> None:
        """Run ``action`` (at the initiator) once ``ref`` has been posted,
        consuming one post — the predicated-copy mechanism.  When the
        event lives remotely, a waiter task runs at its home image and a
        control message triggers the action back at the initiator."""
        home = ref.world_rank

        def wait_and_fire():
            yield from ref.event.consume_when_ready(home, 1)
            if home == initiator:
                action()
            else:
                token = self.next_token()
                self.scratch[("when_event", token)] = action
                self.am.request_nb(
                    home, initiator, _EVENT_FIRE, args=(token,),
                    category=AMCategory.SHORT, kind="event.fire",
                )

        self.start_internal_task(wait_and_fire(), name=f"when_event@{home}")

    def _handle_event_fire(self, ctx, token: int) -> None:
        self.scratch.pop(("when_event", token))()

    def start_internal_task(self, gen, name: str = "internal",
                            owner: Optional[int] = None) -> Task:
        """Run a runtime-internal generator as a simulation task.
        ``owner`` ties it to an image so a fail-stop crash halts it."""
        return Task(self.sim, gen, name=name, owner=owner)

    def summary(self) -> dict:
        """A run report: simulated time, traffic, busy-time balance and
        the headline construct counters (what the harness prints)."""
        busy = self.busy.busy
        # Balance statistics cover only images that did work: at paper
        # scale (8192 images) most ranks may be pure bystanders, and
        # averaging them in would both dilute the imbalance signal and
        # report a meaningless near-zero mean (DESIGN.md §13).
        active = int(np.count_nonzero(busy))
        mean_busy = float(busy.sum() / active) if active else 0.0
        return {
            "images": self.n_images,
            "active_images": active,
            "sim_time": self.sim.now,
            "events_processed": self.sim.events_processed,
            "messages": self.stats["net.msgs"],
            "bytes": self.stats["net.bytes"],
            "spawns": self.stats["spawn.executed"],
            "copies": self.stats["copy.initiated"],
            "cofences": self.stats["cofence.calls"],
            "finish_blocks": self.stats["finish.completed"],
            "finish_waves": self.stats["finish.rounds_total"],
            "retransmits": self.stats["net.retransmits"],
            "drops": self.stats["net.drops"],
            "dups": self.stats["net.dups"],
            "busy_total": float(busy.sum()),
            "busy_imbalance": (float(busy.max() / mean_busy)
                               if mean_busy > 0 else 1.0),
        }

    # ------------------------------------------------------------------ #
    # SPMD launch
    # ------------------------------------------------------------------ #

    def launch(self, kernel: Callable, args: tuple = ()) -> list[Task]:
        """Start ``kernel(img, *args)`` as the main program of every
        *local* image (every image under the simulator; just this
        worker's rank in process mode).  Call :meth:`run` afterwards
        (sim), or let the worker loop drive (process)."""
        tasks = []
        for rank in self.local_ranks:
            img = Image(self, rank, name=f"main@{rank}")
            tasks.append(Task(self.sim, kernel(img, *args),
                              name=f"main@{rank}", owner=rank))
        if self.failure is not None and not self._main_tasks:
            self.failure.start()
        self._main_tasks.extend(tasks)
        for t in tasks:
            t.done_future.add_done_callback(
                partial(self._main_done, t.name, t.owner))
        return tasks

    def _main_done(self, name: str, rank: int, fut) -> None:
        """Done-callback of every main program, on both backends: the
        one way a run fails.  A main that raised ends the run at once:
        its own exception (the engine's TaskFailed wrapper dropped)
        leaves the event loop from here.  So does a main that returned
        inside an open ``finish``, with :class:`FinishUsageError`: that
        block never terminates, and the errors of the functions shipped
        in it would be lost with it."""
        if fut.exception() is not None:
            self.fail(name, fut.exception().__cause__)
        open_blocks = len(self.image_state(rank).finish_stack)
        if open_blocks:
            self.fail(name, FinishUsageError(
                f"image {rank}: main program returned inside "
                f"{open_blocks} open finish block(s)"))
        if self.failure is not None:
            self.failure.check_stop()

    @staticmethod
    def fail(name: str, exc: BaseException) -> None:
        """Raise ``exc`` noted with ``name``, the activation it escaped
        from: the event that calls this ends the run."""
        raise with_task_note(exc, name)

    def _liveness_check(self, sim: Simulator) -> None:
        """Drain hook, the one place that decides what a drained run
        with main programs blocked on live images means: a crash wedged
        them (:class:`~repro.runtime.failure.ImageFailureError`), lost
        traffic stalled them (:class:`~repro.sim.engine.LivenessError`
        with counter snapshots), or, with no fault evidence, an
        application deadlock (:class:`DeadlockError`)."""
        blocked = [t.name for t in self._main_tasks if not
                   t.done_future.done and t.owner not in self.dead_images]
        if not blocked:
            return
        if self.dead_images:
            # Crashed image wedged its survivors (no failure detector, or
            # recovery off): surface a structured failure, not a hang.
            from repro.runtime.failure import build_failure_error

            raise build_failure_error(
                self, reason="image crash wedged surviving images")
        if self.stats["net.drops"] == 0 and self.stats["net.ack_drops"] == 0:
            raise DeadlockError(
                f"simulation drained with blocked main programs: {blocked} "
                f"(t={self.sim.now:.6f}s)")
        from repro.core.finish import stall_report

        raise LivenessError(stall_report(self, blocked))

    def run(self, max_events: Optional[int] = None) -> list[Any]:
        """Run the simulation to completion and return the main-program
        results in rank order.  The first error ends the run and
        propagates: a main program's own exception (noted with the
        task's name, see :meth:`_main_done`), or the drain hook's
        verdict on blocked mains (:meth:`_liveness_check`)."""
        if self.remote_ranks:
            raise RuntimeError(
                "Machine.run drives a machine that hosts every rank; a "
                "worker of a multi-process run is driven by "
                "repro.backend.parallel")
        self.sim.run(max_events=max_events)
        # A main that completed before its image crashed still has a
        # result; only mains the crash interrupted report None.
        return [t.done_future.result() if t.done_future.done else None
                for t in self._main_tasks]


def run_spmd(kernel: Callable, n_images: int,
             params: Optional[MachineParams] = None, seed: int = 0,
             args: tuple = (), max_events: Optional[int] = None,
             setup: Optional[Callable[[Machine], None]] = None,
             faults: Optional[FaultPlan] = None,
             racecheck: bool = False, schedule=None,
             failure_detection=None,
             finalize: Optional[Callable[[Machine, int], Any]] = None,
             backend: str = "sim") -> tuple[Any, list[Any]]:
    """Build a machine, run ``kernel`` SPMD on every image, return
    ``(run, per-rank results)``.

    ``setup(machine)`` runs before launch — the place to allocate
    coarrays, events and locks (allocation is a team-creation-time
    activity in CAF 2.0).  ``faults`` installs a
    :class:`~repro.net.faults.FaultPlan` (chaos mode); pair it with
    ``params.reliable=True`` unless the stall is the point.
    ``schedule`` installs a :class:`~repro.explore.schedule.Schedule`
    (replay) or :class:`~repro.explore.schedule.ScheduleSource`
    (exploration) that drives scheduling tie-breaks and delivery lags.
    ``failure_detection`` enables the heartbeat failure detector: pass
    ``True`` for defaults or a
    :class:`~repro.runtime.failure.FailureConfig` (with
    ``recover=True`` lost shipped functions re-execute on survivors).
    Dead images report ``None`` in the results list.
    ``finalize(machine, rank)`` probes each rank once the run is over,
    where that rank's machine lives; the values land in ``run.extras``
    in rank order.

    On either backend the first error ends the run and is raised here
    as itself, noted with its task (``task 'main@1' failed``); shipped
    functions that raised inside a ``finish`` raise a
    :class:`~repro.core.finish.FinishError` from its ``end finish``.

    ``backend`` selects the execution substrate: ``"sim"`` (default)
    runs every image on the deterministic simulator and returns the
    ``Machine``; ``"process"`` forks one OS process per image and
    returns a :class:`~repro.backend.parallel.ParallelRun` (same
    results-list semantics; a rank that died reports no extra).
    ``faults``, ``racecheck``, ``schedule`` and ``max_events`` are
    simulator-only: the first three are refused by the part of a
    worker's machine that would have had to do them (see
    :func:`repro.backend.parallel.preflight`).
    """
    if backend == "process":
        if max_events is not None:
            raise ValueError("max_events is a simulator-only budget")
        from repro.backend.parallel import preflight, run_spmd_process

        preflight(n_images, params=params, faults=faults,
                  racecheck=racecheck, schedule=schedule)
        return run_spmd_process(
            kernel, n_images, params=params, seed=seed, args=args,
            setup=setup, failure_detection=failure_detection,
            finalize=finalize)
    machine = Machine(n_images, params=params, seed=seed, faults=faults,
                      racecheck=racecheck, schedule=schedule,
                      failure_detection=failure_detection)
    if setup is not None:
        setup(machine)
    machine.launch(kernel, args=args)
    results = machine.run(max_events=max_events)
    if finalize is not None:
        machine.extras = [finalize(machine, rank)
                          for rank in range(n_images)]
    return machine, results
