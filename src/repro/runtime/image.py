"""The per-image programming interface.

SPMD kernels are generator functions receiving an :class:`Image` handle —
the CAF 2.0 "process image" as seen from one activation::

    def kernel(img):
        A = img.machine.coarray_by_name("A")
        yield from img.finish_begin()
        yield from img.spawn(work, (img.rank + 1) % img.nimages)
        yield from img.finish_end()

Blocking operations are generators (call with ``yield from``);
asynchronous operations return immediately with an
:class:`~repro.core.completion.AsyncOp`.

An Image *is* one activation (a main program or one shipped-function
execution, :class:`~repro.runtime.memory_model.Activation`); shipped
functions receive their own Image on the target, so ``rank``, pending-op
tracking and finish attribution are always correct for the executing
scope.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.tasks import Delay, all_of, any_of
from repro.runtime.coarray import Coarray, CoarrayRef
from repro.runtime.event import EventRef, EventVar
from repro.runtime.memory_model import Activation
from repro.runtime.team import Team
from repro.core import cofence as _cofence
from repro.core import collectives as _coll
from repro.core import collectives_algos as _algos
from repro.core import collectives_async as _acoll
from repro.core import copy_async as _copy
from repro.core import finish as _finish
from repro.core import spawn as _spawn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.program import Machine


class ImageState:
    """Durable per-rank state shared by all of the rank's activations.

    Compact and lazy by design: machines are built for thousands of
    images (DESIGN.md §13), so the per-rank footprint is a handful of
    slots and the random stream is only drawn from the pool when the
    image first asks for randomness."""

    __slots__ = ("machine", "world_rank", "_rng", "finish_stack",
                 "_finish_seq", "_coll_seq")

    def __init__(self, machine: "Machine", world_rank: int):
        self.machine = machine
        self.world_rank = world_rank
        self._rng = None
        #: stack of open finish frames of the main program
        self.finish_stack: list = []
        self._finish_seq: dict[int, int] = {}
        self._coll_seq: dict[int, int] = {}

    @property
    def rng(self) -> np.random.Generator:
        """This rank's deterministic stream, materialized on first use
        (bit-identical to eager creation: pool streams are keyed by
        index, not creation order)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self.machine.rng_pool[self.world_rank]
        return rng

    def next_finish_seq(self, team_id: int) -> int:
        seq = self._finish_seq.get(team_id, 0)
        self._finish_seq[team_id] = seq + 1
        return seq

    def next_coll_seq(self, team_id: int) -> int:
        seq = self._coll_seq.get(team_id, 0)
        self._coll_seq[team_id] = seq + 1
        return seq


class Image(Activation):
    """The handle SPMD kernels and shipped functions program against, and
    the activation it runs: the image's main program (``finish_frame``
    None) or one shipped-function execution pinned to its spawner's
    frame."""

    __slots__ = ("machine", "rank")

    def __init__(self, machine: "Machine", world_rank: int,
                 finish_frame=None, name: str = "main"):
        Activation.__init__(self, machine.image_state(world_rank),
                            finish_frame, name)
        self.machine = machine
        self.rank = world_rank

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def team_world(self) -> Team:
        return self.machine.team_world

    @property
    def nimages(self) -> int:
        return self.machine.n_images

    @property
    def rng(self) -> np.random.Generator:
        """This image's deterministic random stream."""
        return self.image_state.rng

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.machine.sim.now

    def team_rank(self, team: Optional[Team] = None) -> int:
        """My rank within ``team`` (default: the world team)."""
        return (team or self.team_world).rank_of(self.rank)

    # ------------------------------------------------------------------ #
    # Failure introspection (DESIGN §11)
    # ------------------------------------------------------------------ #

    def failed_images(self, team: Optional[Team] = None) -> list[int]:
        """World ranks of ``team`` members this image's runtime suspects
        have fail-stopped (empty without a failure detector — survivors
        have no way to know)."""
        failure = self.machine.failure
        if failure is None:
            return []
        team = team if team is not None else self.team_world
        return [r for r in sorted(team) if r in failure.suspects]

    def image_failed(self, world_rank: int) -> bool:
        """Is ``world_rank`` currently suspected dead by the failure
        detector?"""
        failure = self.machine.failure
        return failure is not None and world_rank in failure.suspects

    def alive_images(self, team: Optional[Team] = None) -> list[int]:
        """Team members not suspected dead, in world-rank order."""
        team = team if team is not None else self.team_world
        failure = self.machine.failure
        return team.alive_members(failure.suspects if failure else ())

    def suspected_images(self, team: Optional[Team] = None) -> list[int]:
        """World ranks currently SUSPECTED but not yet confirmed dead —
        quarantined, possibly just slow (DESIGN §12)."""
        failure = self.machine.failure
        if failure is None:
            return []
        team = team if team is not None else self.team_world
        return [r for r in sorted(team)
                if r in failure.suspects and r not in failure.confirmed]

    def confirmed_dead_images(self, team: Optional[Team] = None) -> list[int]:
        """World ranks whose death the detector has CONFIRMED (silent
        past the confirmation timeout; reconciled out of finish)."""
        failure = self.machine.failure
        if failure is None:
            return []
        team = team if team is not None else self.team_world
        return [r for r in sorted(team) if r in failure.confirmed]

    def recovered_images(self, team: Optional[Team] = None) -> list[int]:
        """World ranks that were suspected (or even confirmed) and later
        proved alive — each carries a bumped incarnation number."""
        failure = self.machine.failure
        if failure is None:
            return []
        team = team if team is not None else self.team_world
        return [r for r in sorted(team) if r in failure.recovered]

    def image_incarnation(self, world_rank: int) -> int:
        """Incarnation number of ``world_rank``: bumped each time a
        suspicion against it is retracted (0 = never falsely suspected)."""
        failure = self.machine.failure
        if failure is None:
            return 0
        return failure.incarnations[world_rank]

    # ------------------------------------------------------------------ #
    # Computation
    # ------------------------------------------------------------------ #

    def compute(self, seconds: float) -> Generator[Any, Any, None]:
        """Model ``seconds`` of local computation (accrues busy time,
        which the harness turns into load-balance and efficiency plots).
        An active straggler fault on this image stretches the wall-clock
        duration by its service factor — the *work* is unchanged, the
        image is just slow (gray failure, DESIGN §12)."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        self.machine.busy.add(self.rank, seconds)
        faults = self.machine.faults
        wall = seconds
        if faults is not None and faults.stragglers:
            wall = seconds * faults.service_factor(self.rank, self.now)
        if self.machine.tracer is not None:
            self.machine.tracer.span(self.rank, "compute", self.now,
                                     wall)
        yield Delay(wall)

    # ------------------------------------------------------------------ #
    # Asynchronous operations (paper §II-C)
    # ------------------------------------------------------------------ #

    def copy_async(self, dest, src, pre_event=None, src_event=None,
                   dest_event=None):
        """Predicated asynchronous copy; see :func:`repro.core.copy_async
        .copy_async`."""
        return _copy.copy_async(self, dest, src, pre_event=pre_event,
                                src_event=src_event, dest_event=dest_event)

    def spawn(self, fn, target: int, *args,
              team: Optional[Team] = None, event=None):
        """Ship ``fn`` to ``target`` (blocking only on flow-control
        credits); see :func:`repro.core.spawn.spawn`.  Returns that
        generator itself: use with ``yield from``."""
        return _spawn.spawn(self, fn, target, *args, team=team, event=event)

    # -- asynchronous collectives -------------------------------------- #

    def broadcast_async(self, buf, root: int = 0, team: Optional[Team] = None,
                        src_event=None, local_event=None, radix: int = 2):
        return _acoll.broadcast_async(self, buf, root=root, team=team,
                                      src_event=src_event,
                                      local_event=local_event, radix=radix)

    def reduce_async(self, value, recvbuf=None, op="sum", root: int = 0,
                     team: Optional[Team] = None, src_event=None,
                     local_event=None, radix: int = 2):
        return _acoll.reduce_async(self, value, recvbuf=recvbuf, op=op,
                                   root=root, team=team, src_event=src_event,
                                   local_event=local_event, radix=radix)

    def allreduce_async(self, value, result_buf=None, op="sum",
                        team: Optional[Team] = None, src_event=None,
                        local_event=None, radix: int = 2):
        return _acoll.allreduce_async(self, value, result_buf=result_buf,
                                      op=op, team=team, src_event=src_event,
                                      local_event=local_event, radix=radix)

    def barrier_async(self, team: Optional[Team] = None, src_event=None,
                      local_event=None):
        return _acoll.barrier_async(self, team=team, src_event=src_event,
                                    local_event=local_event)

    def gather_async(self, value, root: int = 0, team: Optional[Team] = None,
                     src_event=None, local_event=None):
        return _acoll.gather_async(self, value, root=root, team=team,
                                   src_event=src_event,
                                   local_event=local_event)

    def scatter_async(self, values, root: int = 0,
                      team: Optional[Team] = None, src_event=None,
                      local_event=None):
        return _acoll.scatter_async(self, values, root=root, team=team,
                                    src_event=src_event,
                                    local_event=local_event)

    def allgather_async(self, value, team: Optional[Team] = None,
                        src_event=None, local_event=None):
        return _acoll.allgather_async(self, value, team=team,
                                      src_event=src_event,
                                      local_event=local_event)

    def alltoall_async(self, values, team: Optional[Team] = None,
                       src_event=None, local_event=None):
        return _acoll.alltoall_async(self, values, team=team,
                                     src_event=src_event,
                                     local_event=local_event)

    def scan_async(self, value, op="sum", team: Optional[Team] = None,
                   inclusive: bool = True, src_event=None, local_event=None):
        return _acoll.scan_async(self, value, op=op, team=team,
                                 inclusive=inclusive, src_event=src_event,
                                 local_event=local_event)

    def sort_async(self, values, team: Optional[Team] = None,
                   src_event=None, local_event=None):
        return _acoll.sort_async(self, values, team=team,
                                 src_event=src_event,
                                 local_event=local_event)

    # ------------------------------------------------------------------ #
    # Synchronization constructs (paper §III)
    # ------------------------------------------------------------------ #

    def finish_begin(self, team: Optional[Team] = None):
        """Enter a finish block; see :func:`repro.core.finish.finish_begin`."""
        return (yield from _finish.finish_begin(self, team=team))

    def finish_end(self, detector: str = "epoch"):
        """Leave a finish block (global termination detection); returns the
        number of allreduce waves used."""
        return (yield from _finish.finish_end(self, detector=detector))

    def cofence(self, downward: Optional[str] = None,
                upward: Optional[str] = None):
        """Local-data-completion fence; see :func:`repro.core.cofence.cofence`.
        Returns that generator itself: use with ``yield from``."""
        return _cofence.cofence(self, downward, upward)

    def event_wait(self, event: EventVar | EventRef, count: int = 1
                   ) -> Generator[Any, Any, None]:
        """Block until ``count`` posts are available on my local counter
        of ``event``, then consume them.  Acquire semantics (§III-B.4b):
        earlier operations may still be completing."""
        ev, home = self._event_home(event)
        if home != self.rank:
            raise ValueError(
                "event_wait must name the caller's own counter "
                f"(waiting on image {home} from image {self.rank})"
            )
        machine = self.machine
        machine.stats.counts["event.waits"] += 1
        yield from ev.consume_when_ready(home, count)
        if machine.racecheck is not None:
            machine.racecheck.event_acquire(self, ev.ref_for(home))

    def event_notify(self, event: EventVar | EventRef, count: int = 1
                     ) -> Generator[Any, Any, None]:
        """Post ``event`` (on its home image).  Release semantics
        (§III-B.4a): the notification is held back until the remote
        effects of this activation's earlier implicit operations are
        visible, so a waiter that observes the post also observes the
        data."""
        release = self.release_waits()
        if release:
            # one future is waited on itself, as in cofence
            yield (release[0] if len(release) == 1
                   else all_of(release, "notify.release"))
        ev, home = self._event_home(event)
        if ev is event and home not in ev.team:
            # an EventRef was checked when it was built; my own counter
            # of an EventVar is checked here
            raise ValueError(
                f"event {ev.name!r} has no counter on image {home}")
        machine = self.machine
        machine.stats.counts["event.notifies"] += 1
        if machine.racecheck is not None:
            machine.racecheck.notify(self, ev.ref_for(home))
        machine.post_event(ev, home, self.rank, count)

    def _event_home(self, event) -> tuple[EventVar, int]:
        if isinstance(event, EventRef):
            return event.event, event.world_rank
        if isinstance(event, EventVar):
            return event, self.rank
        raise TypeError(
            f"expected EventVar or EventRef, got {type(event).__name__}"
        )

    # ------------------------------------------------------------------ #
    # Blocking collectives and data movement
    # ------------------------------------------------------------------ #

    def _ordered(self, collective, team: Optional[Team],
                 source: Optional[int] = None, sink: Optional[int] = None):
        """Run a blocking collective between the race detector's entry and
        exit edges, which follow its actual message flow: with ``source``
        only that team rank contributes its clock on entry (a broadcast's
        root), with ``sink`` only that team rank joins on exit (a reduce
        orders nothing for non-roots)."""
        rc = self.machine.racecheck
        if rc is None:
            return (yield from collective)
        team = team if team is not None else self.team_world
        me = team.rank_of(self.rank)
        key = rc.coll_enter(self, team,
                            contribute=source is None or me == source)
        result = yield from collective
        rc.coll_exit(self, key, join=sink is None or me == sink)
        return result

    def barrier(self, team: Optional[Team] = None):
        return self._ordered(_coll.barrier(self, team=team), team)

    def allreduce(self, value, op="sum", team: Optional[Team] = None):
        return self._ordered(_coll.allreduce(self, value, op=op, team=team),
                             team)

    def reduce(self, value, op="sum", root: int = 0,
               team: Optional[Team] = None):
        return self._ordered(
            _coll.reduce(self, value, op=op, root=root, team=team), team,
            sink=root)

    def broadcast(self, value, root: int = 0, team: Optional[Team] = None):
        return self._ordered(
            _coll.broadcast(self, value, root=root, team=team), team,
            source=root)

    def gather(self, value, root: int = 0, team: Optional[Team] = None):
        return self._ordered(
            _coll.gather(self, value, root=root, team=team), team,
            sink=root)

    def allgather(self, value, team: Optional[Team] = None):
        return self._ordered(_coll.allgather(self, value, team=team), team)

    def scatter(self, values, root: int = 0, team: Optional[Team] = None):
        return self._ordered(
            _coll.scatter(self, values, root=root, team=team), team,
            source=root)

    def alltoall(self, values, team: Optional[Team] = None):
        return self._ordered(_coll.alltoall(self, values, team=team), team)

    def scan(self, value, op="sum", team: Optional[Team] = None,
             inclusive: bool = True):
        return self._ordered(
            _coll.scan(self, value, op=op, team=team, inclusive=inclusive),
            team)

    def sort(self, values, team: Optional[Team] = None):
        return self._ordered(_coll.sort(self, values, team=team), team)

    def team_split(self, team: Team, color: int, key: int):
        """Collectively split ``team``; returns my new team (§II-A)."""
        return self._ordered(_coll.team_split(self, team, color, key), team)

    def ring_allreduce(self, array, op="sum", team: Optional[Team] = None):
        """Bandwidth-optimal array allreduce (ring reduce-scatter +
        allgather); see :mod:`repro.core.collectives_algos`."""
        return self._ordered(
            _algos.ring_allreduce(self, array, op=op, team=team), team)

    def pipelined_broadcast(self, array, root: int = 0,
                            team: Optional[Team] = None, segments: int = 8):
        """Chain-pipelined bulk broadcast; see
        :mod:`repro.core.collectives_algos`."""
        return self._ordered(
            _algos.pipelined_broadcast(self, array, root=root, team=team,
                                       segments=segments),
            team, source=root)

    def wait_all(self, ops) -> Generator[Any, Any, None]:
        """Block until every given AsyncOp is globally done."""
        ops = list(ops)
        futures = [op.global_done for op in ops]
        if futures:
            yield all_of(futures, "wait_all")
        if self.machine.racecheck is not None:
            for op in ops:
                self.machine.racecheck.op_waited(self, op)

    def wait_any(self, ops) -> Generator[Any, Any, int]:
        """Block until one of the AsyncOps is globally done; returns its
        index in the input sequence."""
        ops = list(ops)
        if not ops:
            raise ValueError("wait_any of no operations")
        index, _value = yield any_of([op.global_done for op in ops],
                                     "wait_any")
        if self.machine.racecheck is not None:
            self.machine.racecheck.op_waited(self, ops[index])
        return index

    def get(self, src: CoarrayRef) -> Generator[Any, Any, Any]:
        """Blocking one-sided read of a (remote) coarray section.  Returns
        an array for section reads, a scalar for element reads."""
        sample = src.coarray.local_at(src.world_rank)[src.index]
        scalar = np.ndim(sample) == 0
        buf = np.empty_like(np.atleast_1d(np.asarray(sample)))
        op = _copy.copy_async(self, buf, src, _explicit=True)
        yield op.local_data
        if self.machine.racecheck is not None:
            self.machine.racecheck.op_waited(self, op, "local")
        self.machine.stats.incr("blocking.gets")
        return buf[0] if scalar else buf

    def put(self, dest: CoarrayRef, data) -> Generator[Any, Any, None]:
        """Blocking one-sided write to a (remote) coarray section; returns
        once the write is visible at the destination."""
        buf = np.asarray(data)
        op = _copy.copy_async(self, dest, buf, _explicit=True)
        yield op.global_done
        if self.machine.racecheck is not None:
            self.machine.racecheck.op_waited(self, op)
        self.machine.stats.incr("blocking.puts")

    # ------------------------------------------------------------------ #
    # Direct local accesses (race-detector-visible)
    # ------------------------------------------------------------------ #

    def _rc_access(self, target, write: bool) -> None:
        """Report a synchronous local access to the race detector (no-op
        when detection is off).  Used by lowered surface programs'
        coarray accesses and the local_read/local_write convenience API."""
        if self.machine.racecheck is not None:
            self.machine.racecheck.record_direct(self, target, self.rank,
                                                 write)

    def _local_ref(self, target) -> CoarrayRef:
        if isinstance(target, Coarray):
            target = CoarrayRef(target, self.rank, slice(None))
        if not isinstance(target, CoarrayRef):
            raise TypeError(
                f"expected a Coarray or CoarrayRef, got "
                f"{type(target).__name__}")
        if target.world_rank != self.rank:
            raise ValueError(
                f"local access to coarray {target.coarray.name!r} on image "
                f"{target.world_rank} from image {self.rank}; use get/put "
                "for remote sections")
        return target

    def local_read(self, target):
        """Read my section (or an element) of a coarray — or a local numpy
        buffer — through the instrumented access path: equivalent to plain
        numpy indexing, but the race detector sees it."""
        if isinstance(target, np.ndarray):
            self._rc_access(target, write=False)
            return target
        ref = self._local_ref(target)
        self._rc_access(ref, write=False)
        return ref.read()

    def local_write(self, target, value) -> None:
        """Write my section (or an element) of a coarray — or a local
        numpy buffer — through the instrumented access path."""
        if isinstance(target, np.ndarray):
            self._rc_access(target, write=True)
            target[...] = value
            return
        ref = self._local_ref(target)
        self._rc_access(ref, write=True)
        ref.write(value)
