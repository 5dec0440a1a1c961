"""Vector-clock happens-before race detection for the CAF 2.0 memory
model (DESIGN.md §8).

The paper's relaxed memory model (§III) leaves asynchronous copies,
coarray accesses and event notify/wait unordered unless a synchronization
construct orders them.  This module checks that programs actually supply
the ordering they rely on, in the style of dynamic data-race sanitizers:

- every *activation* (an image's main program, or one shipped-function
  execution) carries a vector clock over abstract components;
- every asynchronous operation gets a fresh component with two ticks:
  tick 1 labels its *local data* effects (what ``cofence`` waits for),
  tick 2 its *global* effect (what ``finish``, handle waits and event
  deliveries guarantee);
- the paper's ordering edges join clocks:

  ========================  =============================================
  edge                      join
  ========================  =============================================
  event_notify → event_wait release/acquire through a per-counter clock
  cofence                   the local-data tick of every pending op the
                            DOWNWARD class filter constrains
  finish entry/exit         all members' clocks (and every implicit op's
                            global tick, and every shipped activation's
                            final clock) meet in a per-frame clock
  spawn → shipped body      the child activation starts from the spawn's
                            initiation clock
  explicit-handle waits     the handle's local/global tick
  blocking collectives      contribute-at-entry / join-at-exit clocks
  lock release → acquire    a per-lock-word clock
  ========================  =============================================

- instrumented accesses (copy endpoints, blocking get/put, the local
  coarray accesses of lowered surface programs, and ``Image.local_read`` /
  ``Image.local_write``) land in per-location shadow state; two
  overlapping accesses, at least one a write, with *incomparable* clocks
  are reported as a race with both sites named.

Precision notes (all err toward the sound side for the false-positive
criterion — extra edges can only hide races, never invent them):

- operations issued by one activation are *processor consistent*: each
  op's base clock joins the global tick of every implicit op the
  activation started earlier, matching the simulator's in-order per-link
  delivery under the reliable transport.  The activation's own direct
  accesses stay unordered with in-flight op effects, which is exactly
  what makes a missing ``cofence`` detectable.
- event clocks accumulate every release; a waiter consuming N of M posts
  joins all M (counting events are not split per post).
- consecutive implicit, unpredicated copies of the same class set share
  one clock component (they are joined all-or-none by every ordering
  construct, so separate components cannot separate outcomes); the batch
  closes on any direct access, sync join, or other operation.  This
  keeps clock sizes proportional to synchronization activity rather than
  copy count — fan-out loops like the cofence micro-benchmark stay
  near-linear instead of quadratic.
- accesses that bypass the runtime (raw numpy on a coarray section, e.g.
  inside a shipped handler that is atomic by construction) are outside
  the instrumented surface, as with any sanitizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

import numpy as np

from repro.runtime.coarray import Coarray, CoarrayRef
from repro.runtime.memory_model import may_pass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.program import Machine

try:  # numpy >= 2.0
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - numpy 1.x
    _byte_bounds = np.byte_bounds


# --------------------------------------------------------------------- #
# Vector clocks (sparse: component id -> tick)
# --------------------------------------------------------------------- #

def vc_join(into: dict, other: dict) -> None:
    """Pointwise max, in place."""
    for k, v in other.items():
        if into.get(k, 0) < v:
            into[k] = v


def vc_leq(a: dict, b: dict) -> bool:
    """a happens-before-or-equals b."""
    for k, v in a.items():
        if v > b.get(k, 0):
            return False
    return True


class OpClock:
    """The clock material of one asynchronous operation: a base clock
    snapshotted at initiation plus a fresh component with two ticks.

    Consecutive implicit copies with the same class set and no
    intervening clock activity share one OpClock (see
    :meth:`RaceDetector.copy_begin`), so the two tick dicts are cached —
    they are identical for every member of the batch."""

    __slots__ = ("oid", "base", "kind", "_vcl", "_vcg")

    def __init__(self, oid: int, base: dict, kind: str):
        self.oid = oid
        self.base = base
        self.kind = kind
        self._vcl = None
        self._vcg = None

    def join_base(self, vc: dict) -> None:
        vc_join(self.base, vc)
        self._vcl = None
        self._vcg = None

    def vc_local(self) -> dict:
        """Labels the op's local-data effects (cofence's guarantee)."""
        if self._vcl is None:
            v = dict(self.base)
            v[self.oid] = 1
            self._vcl = v
        return self._vcl

    def vc_global(self) -> dict:
        """Labels the op's remote/global effects (finish's guarantee)."""
        if self._vcg is None:
            v = dict(self.base)
            v[self.oid] = 2
            self._vcg = v
        return self._vcg


class ThreadClock:
    """Per-activation clock state.  ``tid`` identifies the execution;
    ``name`` is its activation's label, which two concurrent executions
    of one shipped function on one image share."""

    __slots__ = ("tid", "name", "rank", "vc", "issued", "fence_ops",
                 "mut", "epoch")

    def __init__(self, tid: int, name: str, rank: int):
        self.tid = tid
        self.name = name
        self.rank = rank
        self.vc: dict = {tid: 1}
        #: global ticks of started implicit ops (processor consistency +
        #: what event_notify / finish publish on this activation's behalf)
        self.issued: dict = {}
        #: (classes, OpClock) of implicit ops a future cofence may join
        self.fence_ops: list = []
        #: bumped on every clock-relevant activity (release, join, direct
        #: access); an op batch only stays open while this stands still
        self.mut = 0
        #: (classes, mut, OpClock) of the open implicit-copy batch
        self.epoch = None

    def release(self) -> dict:
        """Snapshot the clock for publication, then advance my own
        component so later accesses are not covered by the snapshot."""
        self.mut += 1
        if self.issued:
            # entries the clock already dominates are pure redundancy in
            # every vc ∪ issued publication — drop them so the map stays
            # proportional to the ops in flight, not the ops ever started
            vc = self.vc
            self.issued = {k: v for k, v in self.issued.items()
                           if vc.get(k, 0) < v}
        out = dict(self.vc)
        self.vc[self.tid] += 1
        return out

    def join(self, other: dict) -> None:
        self.mut += 1
        vc_join(self.vc, other)


# --------------------------------------------------------------------- #
# Shadow state
# --------------------------------------------------------------------- #

@dataclass
class AccessSite:
    """One recorded memory access (one side of a race report)."""

    op: str           #: e.g. "copy.put.dest", "local.write", "copy.get.src"
    write: bool
    thread: str       #: activation label, e.g. "main@0" or "fn@3"
    tid: int          #: the execution (ThreadClock.tid) the label names
    lo: int
    hi: int
    time: float
    vc: dict = field(repr=False)
    #: strong reference pinning a local numpy buffer so its address range
    #: cannot be recycled while the record lives
    pin: Any = field(default=None, repr=False)
    #: ``(component, tick)`` standing for the whole of ``vc``: a clock
    #: dominates ``vc`` exactly when it has reached ``tick`` on
    #: ``component`` (see :meth:`RaceDetector.record_access`); None when
    #: no single component does, and clocks are compared entry by entry
    epoch: Optional[tuple] = field(default=None, repr=False)

    def describe(self) -> str:
        rw = "write" if self.write else "read"
        return (f"{rw} of [{self.lo}:{self.hi}) by {self.thread}"
                f"#{self.tid} ({self.op}, t={self.time:.3e}s)")


@dataclass
class RaceReport:
    """A pair of conflicting, unordered accesses."""

    location: str
    a: AccessSite
    b: AccessSite
    hint: str

    def __str__(self) -> str:
        return (f"race on {self.location}: {self.a.describe()} <-> "
                f"{self.b.describe()}; {self.hint}")


def _index_range(index: Any, local: np.ndarray) -> tuple[int, int]:
    """Element bounds of an index into a section (conservative bounding
    box for anything fancier than 1-D int/slice indexing)."""
    n = int(local.size)
    if local.ndim != 1:
        return 0, n
    if isinstance(index, (int, np.integer)):
        i = int(index)
        if i < 0:
            i += n
        return i, i + 1
    if isinstance(index, slice):
        lo, hi, step = index.indices(n)
        if step == 1:
            return lo, max(lo, hi)
        return min(lo, hi), max(lo, hi) + 1
    return 0, n


class RaceDetector:
    """Machine-wide detector state; created by ``Machine(racecheck=True)``.

    Every hook is invoked by the runtime only when the machine carries a
    detector, so a disabled run pays exactly one ``is None`` test per
    construct.  The detector never schedules simulation events: enabling
    it cannot perturb timing or results.
    """

    def __init__(self, machine: "Machine"):
        if machine.remote_ranks:
            raise ValueError(
                "race checking needs every rank hosted on this machine "
                f"({len(machine.remote_ranks)} of {machine.n_images} are "
                "not): shadow memory does not cross process boundaries "
                "— use the deterministic simulator (backend='sim')")
        self.machine = machine
        self._components = itertools.count(1)
        self._threads = 0
        #: location key -> live AccessSite records
        self._shadow: dict[tuple, list[AccessSite]] = {}
        self.races: list[RaceReport] = []
        self._reported: set = set()
        self._event_clocks: dict[tuple, dict] = {}
        self._finish_clocks: dict[tuple, dict] = {}
        self._lock_clocks: dict[tuple, dict] = {}
        self._coll_clocks: dict[tuple, dict] = {}
        self._coll_rounds: dict[tuple, int] = {}
        #: (thread, downward, upward, t) annotations of every cofence
        self.fences: list[tuple] = []

    # -- threads --------------------------------------------------------- #

    def thread(self, activation) -> ThreadClock:
        th = activation.rc
        if th is None:
            th = ThreadClock(next(self._components), activation.name,
                             activation.image_state.world_rank)
            activation.rc = th
            self._threads += 1
        return th

    # -- access recording -------------------------------------------------- #

    def _location(self, target: Any, rank: int
                  ) -> tuple[tuple, int, int, Any]:
        if isinstance(target, CoarrayRef):
            local = target.coarray.local_at(target.world_rank)
            lo, hi = _index_range(target.index, local)
            return (("coarray", target.coarray.name, target.world_rank),
                    lo, hi, None)
        if isinstance(target, Coarray):
            local = target.local_at(rank)
            return ("coarray", target.name, rank), 0, int(local.size), None
        if isinstance(target, np.ndarray):
            lo, hi = _byte_bounds(target)
            return ("buffer", rank), int(lo), int(hi), target
        raise TypeError(
            f"cannot locate access target of type {type(target).__name__}")

    def _location_str(self, key: tuple) -> str:
        if key[0] == "coarray":
            return f"coarray {key[1]!r}@img{key[2]}"
        return f"local buffers@img{key[1]}"

    def record_access(self, target: Any, rank: int, write: bool, vc: dict,
                      op: str, thread: ThreadClock,
                      epoch: Optional[tuple] = None) -> None:
        """Check one access against the shadow state and record it.

        ``epoch`` is the ``(component, tick)`` that first appears with
        this clock: an activation's own component at a direct access, an
        operation's component at its local (1) or global (2) tick.  A
        component only ever travels inside a clock that already contains
        everything its owner knew at that tick — releases publish whole
        clocks, operation ticks are published on top of the operation's
        base, and later bases of the same activation only grow — so
        "reached ``tick`` on ``component``" is equivalent to dominating
        this whole clock, and later accesses order themselves against
        this record with one lookup instead of a walk over ``vc`` (whose
        size grows with the synchronization history).  The caller passes
        None when the equivalence does not hold: a predicated copy's
        base grows when its event fires, after its local tick may
        already have been joined."""
        key, lo, hi, pin = self._location(target, rank)
        site = AccessSite(op=op, write=write, thread=thread.name,
                          tid=thread.tid, lo=lo, hi=hi,
                          time=self.machine.sim.now, vc=vc, pin=pin,
                          epoch=epoch)
        self.machine.stats.incr("race.accesses")
        records = self._shadow.setdefault(key, [])
        keep = []
        for old in records:
            reached = old.epoch
            ordered = (old.vc is vc
                       or (vc.get(reached[0], 0) >= reached[1]
                           if reached is not None else vc_leq(old.vc, vc)))
            overlaps = old.hi > lo and hi > old.lo
            if overlaps and (old.write or write) and not ordered:
                self._report(key, old, site)
            redundant = (ordered and old.lo >= lo and old.hi <= hi
                         and (write or not old.write))
            if not redundant:
                keep.append(old)
        keep.append(site)
        self._shadow[key] = keep

    def record_direct(self, activation, target: Any, rank: int,
                      write: bool, op: Optional[str] = None) -> None:
        """A synchronous access performed by the activation itself."""
        th = self.thread(activation)
        # A direct access closes any open implicit-copy batch: a later
        # copy must not share a base snapshotted before this access.
        th.mut += 1
        self.record_access(
            target, rank, write, dict(th.vc),
            op or ("local.write" if write else "local.read"), th,
            epoch=(th.tid, th.vc[th.tid]))

    def _report(self, key: tuple, old: AccessSite, new: AccessSite) -> None:
        sig = (key, old.op, old.thread, new.op, new.thread)
        if sig in self._reported:
            return
        self._reported.add(sig)
        report = RaceReport(self._location_str(key), old, new,
                            self._hint(old, new))
        self.races.append(report)
        self.machine.stats.incr("race.races")

    @staticmethod
    def _hint(old: AccessSite, new: AccessSite) -> str:
        if old.tid == new.tid:
            return ("both accesses come from the same activation with no "
                    "completion edge between them: a cofence covering the "
                    "operation's class (or waiting its handle) after the "
                    "first access would order them")
        return ("no edge between the two activations orders these "
                "accesses: an event_notify/event_wait pair, an enclosing "
                "finish, or a lock would create the missing happens-before "
                "edge")

    # -- asynchronous operations ------------------------------------------ #

    def _op_begin(self, activation, kind: str) -> tuple[OpClock, ThreadClock]:
        th = self.thread(activation)
        base = th.release()
        vc_join(base, th.issued)
        return OpClock(next(self._components), base, kind), th

    def copy_begin(self, ctx, op, implicit: bool,
                   predicated: bool = False) -> OpClock:
        """Snapshot clocks at copy initiation (program-order point).

        Consecutive implicit, unpredicated copies with the same class set
        and no intervening clock activity (no sync joins, no direct
        accesses, no other operation kinds) get *one* shared component:
        their bases are identical and every ordering construct that can
        join them — cofence class filters, finish, notify — treats the
        whole batch alike, so per-copy components would only grow the
        clocks without separating any outcome.  (The one coarsening:
        waiting one such copy's handle also covers its batch mates;
        predicated copies always get their own component because their
        base joins the predicate event's clock.)"""
        th = self.thread(ctx.activation)
        if implicit and not predicated and op.pending_op is not None:
            classes = op.pending_op.classes
            ep = th.epoch
            if (ep is not None and ep[0] == classes and ep[1] == th.mut):
                rcop = ep[2]
                op.rc = rcop
                op.pending_op.rc = rcop
                return rcop
        rcop, th = self._op_begin(ctx.activation, "copy")
        op.rc = rcop
        if op.pending_op is not None:
            op.pending_op.rc = rcop
            if implicit:
                th.fence_ops.append((op.pending_op.classes, rcop))
                if not predicated:
                    th.epoch = (op.pending_op.classes, th.mut, rcop)
        return rcop

    def copy_started(self, ctx, rcop: OpClock, implicit: bool, dest, src,
                     pre, src_ev, dest_ev) -> None:
        """The copy actually launches (immediately, or when its predicate
        event fires): finalize its clock, record both endpoint accesses,
        and register its completion-event releases eagerly."""
        th = self.thread(ctx.activation)
        if pre is not None:
            rcop.join_base(self.event_clock(pre))
            # the predicate fires asynchronously: the issued entry below
            # lands mid-stream, so no later copy may batch with a base
            # snapshotted before it
            th.mut += 1
        if implicit:
            th.issued[rcop.oid] = 2
        src_local = src.rank == ctx.rank
        dest_local = dest.rank == ctx.rank
        path = ("local" if src_local and dest_local else
                "put" if src_local else
                "get" if dest_local else "fwd")
        vcl, vcg = rcop.vc_local(), rcop.vc_global()
        # get: all completion points coincide at the initiator, so both
        # endpoints carry the local tick; fwd: the initiator's buffers are
        # untouched and both effects are remote.
        src_vc = vcg if path == "fwd" else vcl
        dest_vc = vcg if path in ("put", "fwd") else vcl
        for loc, end, write, vc in ((src, "src", False, src_vc),
                                    (dest, "dest", True, dest_vc)):
            self.record_access(
                loc.ref if loc.ref is not None else loc.buffer, loc.rank,
                write, vc, f"copy.{path}.{end}", th,
                epoch=(None if pre is not None
                       else (rcop.oid, 2 if vc is vcg else 1)))
        if src_ev is not None:
            self.event_release(src_ev, src_vc)
        if dest_ev is not None:
            self.event_release(dest_ev, dest_vc)

    def spawn_begin(self, ctx, implicit: bool) -> OpClock:
        """Snapshot clocks at spawn initiation; the caller stores the
        returned clock on the handle once the message gives it one."""
        rcop, th = self._op_begin(ctx.activation, "spawn")
        if implicit:
            th.issued[rcop.oid] = 2
        return rcop

    def spawn_registered(self, activation, op) -> None:
        pending = op.pending_op
        pending.rc = op.rc
        self.thread(activation).fence_ops.append((pending.classes, op.rc))

    def activation_begin(self, activation, base_vc: Optional[dict]) -> None:
        """A shipped function starts: inherit the spawn's clock."""
        th = self.thread(activation)
        if base_vc:
            th.join(base_vc)

    def activation_done(self, activation, key: Optional[tuple],
                        event_ref) -> None:
        """A shipped function finishes: publish its final clock to the
        finish frame it is pinned to and/or its completion event."""
        if key is None and event_ref is None:
            return
        th = self.thread(activation)
        vc = th.release()
        vc_join(vc, th.issued)
        if key is not None:
            vc_join(self._finish_clocks.setdefault(key, {}), vc)
        if event_ref is not None:
            self.event_release(event_ref, vc)

    def op_waited(self, activation, op, level: str = "global") -> None:
        """An explicit wait on an AsyncOp handle (get/put/wait_all...)."""
        rcop = getattr(op, "rc", None)
        if rcop is None:
            return
        self.thread(activation).join(
            rcop.vc_global() if level == "global" else rcop.vc_local())

    # -- cofence ------------------------------------------------------------ #

    def cofence_joined(self, activation, down_allowed: frozenset,
                       downward, upward) -> None:
        """The fence returned: join the local-data clock of every op its
        DOWNWARD filter constrained; record the class annotation."""
        th = self.thread(activation)
        keep = []
        for classes, rcop in th.fence_ops:
            if may_pass(classes, down_allowed):
                keep.append((classes, rcop))
            else:
                th.join(rcop.vc_local())
        th.fence_ops = keep
        self.fences.append((th.name, downward, upward, self.machine.sim.now))

    # -- events -------------------------------------------------------------- #

    def _event_key(self, ref) -> tuple:
        return (ref.event.name, ref.world_rank)

    def event_clock(self, ref) -> dict:
        return self._event_clocks.get(self._event_key(ref), {})

    def event_release(self, ref, vc: dict) -> None:
        vc_join(self._event_clocks.setdefault(self._event_key(ref), {}), vc)

    def event_acquire(self, activation, ref) -> None:
        self.thread(activation).join(self.event_clock(ref))

    def notify(self, activation, ref) -> None:
        """event_notify: the runtime already held the post back for the
        remote effects of earlier implicit ops, so the release clock
        carries their global ticks."""
        th = self.thread(activation)
        vc = th.release()
        vc_join(vc, th.issued)
        self.event_release(ref, vc)

    # -- finish -------------------------------------------------------------- #

    def finish_enter(self, activation, key: tuple) -> None:
        th = self.thread(activation)
        vc = th.release()
        vc_join(vc, th.issued)
        vc_join(self._finish_clocks.setdefault(key, {}), vc)

    def finish_exit(self, activation, key: tuple) -> None:
        th = self.thread(activation)
        th.join(self._finish_clocks.get(key, {}))
        # Everything this activation issued is globally complete and now
        # dominated by the thread clock.
        th.fence_ops = []
        th.issued = {}

    # -- locks ---------------------------------------------------------------- #

    def lock_released(self, activation, name: str, home: int) -> None:
        """Lock release is fire-and-forget: it orders the holder's direct
        accesses, not in-flight asynchronous effects (no ``issued``)."""
        th = self.thread(activation)
        vc_join(self._lock_clocks.setdefault((name, home), {}), th.release())

    def lock_acquired(self, activation, name: str, home: int) -> None:
        self.thread(activation).join(self._lock_clocks.get((name, home), {}))

    # -- blocking collectives -------------------------------------------------- #

    def coll_enter(self, activation, team, contribute: bool = True) -> tuple:
        """SPMD discipline matches each member's k-th blocking collective
        on a team with its teammates' k-th."""
        th = self.thread(activation)
        ckey = (th.rank, team.id)
        n = self._coll_rounds.get(ckey, 0)
        self._coll_rounds[ckey] = n + 1
        key = ("coll", team.id, n)
        if contribute:
            vc_join(self._coll_clocks.setdefault(key, {}), th.release())
        return key

    def coll_exit(self, activation, key: tuple, join: bool = True) -> None:
        if join:
            self.thread(activation).join(self._coll_clocks.get(key, {}))

    # -- reporting -------------------------------------------------------------- #

    @property
    def race_count(self) -> int:
        return len(self.races)

    def report(self) -> str:
        """Human-readable summary of every detected race."""
        if not self.races:
            return (f"racecheck: no races "
                    f"({self.machine.stats['race.accesses']} accesses, "
                    f"{self._threads} activations instrumented)")
        lines = [f"racecheck: {len(self.races)} race(s)"]
        lines.extend(f"  {r}" for r in self.races)
        return "\n".join(lines)
