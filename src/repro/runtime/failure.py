"""Image failures: gray-failure-tolerant detection and reporting.

The failure model (DESIGN §11-§12) distinguishes *fail-stop* crashes —
an image halts instantly, loses its memory, never sends another byte —
from *gray* failures: stragglers and partitions that merely look like
crashes.  Survivors learn about either through a heartbeat failure
detector, not simulator omniscience, so the runtime must survive the
detector being wrong.

Two-level membership
--------------------
Suspicion comes in two levels with different commitments:

- ``SUSPECTED`` — the detector stopped hearing from the peer.  Cheap
  and revocable: sends toward the peer park in the transport's
  quarantine, nothing is reconciled.  *Any* delivery from the peer
  lifts the suspicion, bumps the peer's incarnation number, and flushes
  the quarantine.
- ``CONFIRMED_DEAD`` — the silence outlasted ``confirm_timeout``.
  Expensive and (almost) irreversible: quarantined sends fail with
  :class:`~repro.net.transport.PeerFailedError`, finish frames
  reconcile (exact-subtraction of the peer's counter stamps), and with
  ``recover=True`` lost shipped functions re-execute on survivors.  If
  a confirmed peer nevertheless delivers (an extreme gray failure), it
  is *resurrected*: the reconciliation algebra replays in reverse
  (:meth:`repro.core.finish.FinishFrame.unreconcile`).

Both sets are shared, monotonic-per-transition views modelling a
replicated membership service (in the spirit of ULFM's agreement);
``confirmed`` is always a subset of ``suspects`` so the transport's
fast path pays one membership check, not two.

Hierarchical monitoring (DESIGN §13)
------------------------------------
Monitoring is *not* all-pairs.  Live images are arranged in a radix
tree (``_TREE_RADIX`` = 4) over the current non-confirmed membership,
and each image heartbeats and watches only its tree neighbours —
parent plus up to ``_TREE_RADIX`` children, so one period
costs O(p) messages total instead of O(p²) and every observer tracks
O(1) peers.  Suspicion and confirmation publish into the shared
membership sets, so detection latency is still one observer's timeout,
not a tree traversal.  When a confirmation (or resurrection) changes
membership, the tree is rebuilt over the survivors: a dead interior
node's children are re-adopted automatically because positions shift.
A *falsely confirmed* image that is in fact alive drops out of the
tree, so it keeps probing the surrogate root (the lowest live rank) —
one delivered probe is all a resurrection takes.

Detectors
---------
Every image runs a detector task each ``period`` (stretched by any
straggler factor on the image itself).  Two suspicion rules are
available:

- ``detector="timeout"``: suspect after ``timeout`` of silence — the
  classic rule, which flaps against a straggler whose service interval
  exceeds the timeout.
- ``detector="phi"``: Hayashibara-style phi-accrual — each observer
  keeps a window of the last ``_WINDOW`` (100) per-peer delivery
  inter-arrival times and suspects when
  ``phi = -log10(P(a delivery this late or later))`` reaches
  ``_PHI_SUSPECT`` (12).  The window adapts to a straggler's degraded
  cadence, so sustained slowness stops triggering once observed; fewer
  than 4 samples falls back to the timeout rule.

*Confirmation* is time-based for both rules — ``elapsed >
confirm_timeout`` — because accrued improbability must never be allowed
to confirm (and reconcile) a peer that is merely slow; only hard
silence may.  Detection-quality metrics (false-suspicion count,
suspect/confirm latency for real crashes, time-to-unsuspect) accumulate
on the service for the ``grayfail`` harness experiment.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.core import spawn
from repro.net.active_messages import AMCategory
from repro.sim.tasks import Delay, Task


class ImageFailureError(RuntimeError):
    """One or more images failed inside a finish that cannot (or was not
    asked to) recover.

    Attributes
    ----------
    dead : tuple[int, ...]
        The failed world ranks, as known when the error was built.
    epochs : dict
        Snapshot of the non-quiet finish frames' counters at detection
        time (``(rank, key) -> FinishFrame.snapshot()``).
    orphans : dict[int, int]
        Per-dead-image count of counted sends whose shipped work was
        orphaned by the crash.
    detected_at : float
        Simulated time at which the failure surfaced.
    """

    def __init__(self, message: str, dead: tuple = (), epochs=None,
                 orphans=None, detected_at: float = 0.0):
        super().__init__(message)
        self.dead = tuple(dead)
        self.epochs = dict(epochs or {})
        self.orphans = dict(orphans or {})
        self.detected_at = detected_at


def build_failure_error(machine, dead=None, reason: str = "image failure"
                        ) -> ImageFailureError:
    """Assemble a structured :class:`ImageFailureError` from the
    machine's current state (works with or without a failure service)."""
    service = machine.failure
    if dead is None:
        dead = set(machine.dead_images)
        if service is not None:
            dead |= service.confirmed
    dead = tuple(sorted(dead))
    epochs = {}
    for (rank, key), frame in sorted(machine._frames.items()):
        if (not frame.even.locally_quiet() or not frame.odd.locally_quiet()
                or frame.cond.waiting):
            epochs[(rank, key)] = frame.snapshot()
    if service is not None and service.orphans:
        orphans = dict(service.orphans)
    else:
        orphans = {}
        for d in dead:
            n = sum(frame.sent_to.get(d, 0)
                    for (rank, _k), frame in machine._frames.items()
                    if rank not in dead)
            if n:
                orphans[d] = n
    msg = (f"{reason}: image(s) {list(dead)} failed at "
           f"t={machine.sim.now:.6f}s; "
           f"orphaned sends {orphans if orphans else '{}'} "
           f"({len(epochs)} finish frame(s) not quiet)")
    return ImageFailureError(msg, dead=dead, epochs=epochs, orphans=orphans,
                             detected_at=machine.sim.now)


class FailureConfig:
    """Tuning for the heartbeat failure detector.

    ``period``          — heartbeat interval per image (seconds).
    ``timeout``         — silence threshold for suspicion under the
                          ``"timeout"`` rule (and the phi cold-start
                          fallback); default 10 periods.
    ``recover``         — re-execute lost shipped functions on survivors
                          instead of raising :class:`ImageFailureError`.
    ``detector``        — suspicion rule: ``"timeout"`` or ``"phi"``.
    ``confirm_timeout`` — silence threshold for CONFIRMED_DEAD (both
                          rules); default 3 timeouts.  Must exceed
                          ``timeout`` so confirmation never races
                          suspicion.
    """

    __slots__ = ("period", "timeout", "recover", "detector",
                 "confirm_timeout")

    def __init__(self, period: float = 5e-5,
                 timeout: Optional[float] = None,
                 recover: bool = False,
                 detector: str = "timeout",
                 confirm_timeout: Optional[float] = None):
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive, got {period}")
        if timeout is None:
            timeout = 10.0 * period
        if timeout <= period:
            raise ValueError(
                f"timeout ({timeout}) must exceed the heartbeat period "
                f"({period}) or every image is suspected instantly"
            )
        if detector not in ("timeout", "phi"):
            raise ValueError(
                f"detector must be 'timeout' or 'phi', got {detector!r}")
        if confirm_timeout is None:
            confirm_timeout = 3.0 * timeout
        if confirm_timeout <= timeout:
            raise ValueError(
                f"confirm_timeout ({confirm_timeout}) must exceed the "
                f"suspicion timeout ({timeout}): confirmation is the "
                "irreversible level"
            )
        self.period = period
        self.timeout = timeout
        self.recover = recover
        self.detector = detector
        self.confirm_timeout = confirm_timeout

    def __repr__(self) -> str:
        return (f"FailureConfig(period={self.period}, timeout={self.timeout}, "
                f"recover={self.recover}, detector={self.detector!r}, "
                f"confirm_timeout={self.confirm_timeout})")


_HB = "fail.hb"
_MEMBER = "fail.member"

#: fan-out of the hierarchical monitoring tree: each image heartbeats
#: and watches its parent and up to this many children (never all pairs)
_TREE_RADIX = 4
#: per-(observer, peer) inter-arrival samples kept for the phi estimate
_WINDOW = 100
#: phi threshold for suspicion under ``detector="phi"``: phi = 12 means
#: the silence had probability 1e-12 under the observed arrival
#: distribution
_PHI_SUSPECT = 12.0


#: Membership transitions (DESIGN §12.2).  A peer's level is 0 while
#: trusted, 1 while suspected and 2 once confirmed (``confirmed`` is a
#: subset of ``suspects``).  Per op: the levels it applies from and the
#: transport call that moves the peer.
_TRANSITIONS = {
    "suspect": ((0,), "mark_suspect"),
    "confirm": ((0, 1), "confirm_dead"),
    "unsuspect": ((1,), "unmark_suspect"),
    "resurrect": ((2,), "unconfirm"),
}
#: the transitions that lift a verdict; only a live peer can earn one
_HEALS = ("unsuspect", "resurrect")


class _SparseCounters(dict):
    """Per-rank int counters that read 0 for untouched ranks without
    ever storing them — ``c[r] += 1`` materializes only rank ``r``."""

    __slots__ = ()

    def __missing__(self, key):
        return 0


class FailureService:
    """Per-machine failure detection (one detector task per image,
    heartbeating over a hierarchical monitoring tree)."""

    def __init__(self, machine, config: FailureConfig):
        self.machine = machine
        self.config = config
        self.recover = config.recover
        n = machine.n_images
        self.n_images = n
        # Shared with the transport: sends to merely-suspected peers
        # park in its quarantine, sends to confirmed peers fail fast.
        self.suspects: set[int] = machine.network.suspects
        self.confirmed: set[int] = machine.network.confirmed
        #: membership generation; bumped on every transition (suspect,
        #: unsuspect, confirm, resurrect) so detector waves snapshotting
        #: it can notice a mid-wave change
        self.gen = 0
        #: per-image incarnation numbers: bumped each time an image
        #: returns from wrongful suspicion/confirmation, so stale state
        #: about the previous "life" is distinguishable.  Sparse: only
        #: ranks that ever recovered occupy memory.
        self.incarnations = _SparseCounters()
        #: images that were suspected (or confirmed) and came back
        self.recovered: set[int] = set()
        #: per-dead-image counted-send orphan totals (filled at reconcile)
        self.orphans: dict[int, int] = {}
        # last-heard clocks, sparse per observer: entries exist only for
        # the observer's monitored tree neighbours, seeded on the first
        # detector tick that watches the pair (never an n×n matrix)
        self._last_heard: dict[int, dict[int, float]] = {}
        # phi-accrual inter-arrival windows, lazily created per
        # (observer, peer) directed pair
        self._phi = config.detector == "phi"
        self._intervals: dict[tuple, deque] = {}
        # Monitoring tree over the non-confirmed membership; rebuilt
        # lazily whenever `gen` moves (see monitored_peers).  While no
        # image is confirmed dead the membership is the identity map
        # (pos == rank) and costs nothing; the order/pos tables are only
        # materialized once a confirmation punches a hole in it.
        self._alive_order: Optional[list[int]] = None
        self._alive_pos: Optional[dict[int, int]] = None
        self._monitor_cache: dict[int, frozenset] = {}
        self._monitor_gen = -1
        #: when each currently-suspected image was suspected
        self.suspected_at: dict[int, float] = {}
        # --- detector-quality metrics (grayfail experiment) ---------- #
        #: crash -> suspicion lag per real crash detected
        self.suspect_latency: list[float] = []
        #: crash -> confirmation lag per real crash confirmed
        self.confirm_latency: list[float] = []
        #: suspicion -> unsuspicion lag per false suspicion healed
        self.time_to_unsuspect: list[float] = []
        self._tasks: list[Task] = []
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        machine = self.machine
        machine.network.on_delivery = self._on_delivery
        machine.am.ensure_registered(_HB, _heartbeat_handler)
        machine.am.ensure_registered(_MEMBER, _make_member_handler(machine))
        # Detector tasks run only for ranks this machine hosts: all of
        # them under the simulator, exactly one in a process-mode worker
        # (each worker observes for its own rank; verdicts propagate by
        # membership gossip instead of the sim's shared sets).
        local = list(machine.local_ranks)
        for rank in local:
            task = Task(machine.sim, self._detector(rank),
                        name=f"fail.detect@{rank}", owner=rank)
            self._tasks.append(task)
        machine.stats.incr("fail.detectors", len(local))

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for task in self._tasks:
            task.kill()

    def check_stop(self) -> None:
        """Stop heartbeating once every main program is finished or
        belongs to a dead/confirmed image; otherwise the periodic timers
        would keep the event queue alive forever.  Merely-suspected
        owners do NOT count as finished: a straggler's main is still
        running, and stopping the detectors would strand it suspected
        forever (no heartbeat could ever unsuspect it)."""
        if self._stopped:
            return
        machine = self.machine
        if machine.remote_ranks:
            # With ranks hosted by other machines, this one must keep
            # heartbeating after its own mains finish — its peers may
            # still be running (and its silence would read as a crash).
            # Such a machine runs a wall-clock loop, which has no
            # drained-queue liveness problem; the coordinator's shutdown
            # broadcast ends the process.
            return
        for task in machine._main_tasks:
            if task.done_future.done:
                continue
            owner = task.owner
            if owner is not None and (owner in machine.dead_images
                                      or owner in self.confirmed):
                continue
            return
        self.stop()

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #

    # -- hierarchical monitoring tree ---------------------------------- #

    def _rebuild_membership(self) -> None:
        if self.confirmed:
            order = [r for r in range(self.n_images)
                     if r not in self.confirmed]
            self._alive_order = order
            self._alive_pos = {r: i for i, r in enumerate(order)}
        else:
            # Identity membership: pos == rank, no tables needed.
            self._alive_order = None
            self._alive_pos = None
        self._monitor_cache.clear()
        self._monitor_gen = self.gen

    def monitored_peers(self, rank: int) -> frozenset:
        """World ranks ``rank`` heartbeats and watches: its parent and
        children in the ``_TREE_RADIX``-ary monitoring tree over the
        current non-confirmed membership.  A rank that is itself
        confirmed (wrongly — it is calling this, so it is alive) gets
        the surrogate root so it can announce its own resurrection."""
        if self._monitor_gen != self.gen:
            self._rebuild_membership()
        peers = self._monitor_cache.get(rank)
        if peers is None:
            peers = self._monitor_cache[rank] = self._tree_neighbors(rank)
        return peers

    def _tree_neighbors(self, rank: int) -> frozenset:
        order = self._alive_order
        if order is None:
            pos, size = rank, self.n_images
            rank_at = lambda p: p
        else:
            pos = self._alive_pos.get(rank)
            size = len(order)
            rank_at = order.__getitem__
            if pos is None:
                # Confirmed-but-calling: alive despite the verdict.
                # Probe the surrogate root until a delivery resurrects.
                return frozenset(order[:1])
        out = []
        if pos > 0:
            out.append(rank_at((pos - 1) // _TREE_RADIX))
        first_child = _TREE_RADIX * pos + 1
        for c in range(first_child, min(first_child + _TREE_RADIX, size)):
            out.append(rank_at(c))
        return frozenset(out)

    def _on_delivery(self, src: int, dst: int) -> None:
        now = self.machine.sim.now
        if src in self.monitored_peers(dst):
            heard = self._last_heard.get(dst)
            if heard is None:
                heard = self._last_heard[dst] = {}
            prev = heard.get(src)
            if self._phi and prev is not None and now > prev:
                key = (dst, src)
                window = self._intervals.get(key)
                if window is None:
                    window = self._intervals[key] = deque(maxlen=_WINDOW)
                window.append(now - prev)
            heard[src] = now
        # A delivery IS life: lift any wrong verdict about the sender
        # before the message's own callbacks run (the transport calls
        # this hook first), so its counter stamps land un-reconciled.
        if src in self.suspects:
            self.transition(
                "resurrect" if src in self.confirmed else "unsuspect", src)

    def _phi_value(self, observer: int, peer: int, elapsed: float) -> float:
        """Hayashibara phi: -log10 of the probability that a delivery
        gap this long or longer occurs under the observed inter-arrival
        distribution (normal approximation, std floored at a quarter of
        the mean so a metronomic sender is not suspected on microscopic
        jitter)."""
        window = self._intervals.get((observer, peer))
        if window is None or len(window) < 4:
            # Cold start: too little history for an estimate — fall
            # back to the fixed timeout rule.
            return math.inf if elapsed > self.config.timeout else 0.0
        mean = sum(window) / len(window)
        var = sum((x - mean) ** 2 for x in window) / len(window)
        std = max(math.sqrt(var), 0.25 * mean, 1e-12)
        y = (elapsed - mean) / std
        p_later = 0.5 * math.erfc(y / math.sqrt(2.0))
        return -math.log10(max(p_later, 1e-30))

    def _detector(self, rank: int):
        machine = self.machine
        sim = machine.sim
        cfg = self.config
        period = cfg.period
        timeout = cfg.timeout
        confirm_timeout = cfg.confirm_timeout
        phi = self._phi
        faults = machine.faults
        straggling = faults is not None and bool(faults.stragglers)
        while True:
            delay = period
            if straggling:
                # A straggling image's own detector ticks slower too —
                # its heartbeats go out at the degraded cadence.
                delay *= faults.service_factor(rank, sim.now)
            yield Delay(delay)
            now = sim.now
            # O(_TREE_RADIX) work per tick: only tree neighbours are
            # watched and heartbeated, never all peers.
            peers = sorted(self.monitored_peers(rank))
            heard = self._last_heard.get(rank)
            if heard is None:
                heard = self._last_heard[rank] = {}
            for peer in peers:
                if peer == rank or peer in self.confirmed:
                    continue
                # A peer first watched on this tick (startup, or just
                # adopted after the tree healed) is measured from now.
                elapsed = now - heard.setdefault(peer, now)
                if peer in self.suspects:
                    # Level two is time-based for BOTH rules: only hard
                    # silence may trigger the irreversible verdict.
                    if elapsed > confirm_timeout:
                        self.transition("confirm", peer)
                    continue
                if phi:
                    if self._phi_value(rank, peer, elapsed) >= _PHI_SUSPECT:
                        self.transition("suspect", peer)
                elif elapsed > timeout:
                    self.transition("suspect", peer)
            for peer in peers:
                if peer == rank or peer in self.confirmed:
                    continue
                # Suspected-but-unconfirmed peers keep receiving
                # heartbeats: these probes (best-effort, so they bypass
                # the quarantine) are what lets a falsely-suspected peer
                # answer back and be unsuspected after a partition heals.
                machine.am.request_nb(
                    rank, peer, _HB, category=AMCategory.SHORT,
                    best_effort=True, kind="fail.hb",
                )
            machine.stats.incr("fail.hb_rounds")

    # ------------------------------------------------------------------ #
    # Membership transitions
    # ------------------------------------------------------------------ #

    def _gossip(self, op: str, peer: int) -> None:
        """Broadcast a membership transition to every rank another
        machine hosts (under the simulator: none).

        Under the simulator the suspect/confirmed sets are one shared
        structure (an idealized membership service); on real processes
        each worker holds its own copy, so the observer that makes a
        transition tells everyone else.  Best-effort SHORT messages
        (verdicts about a dead peer must not park in its quarantine);
        application is idempotent at the receiver, so crossed gossip
        converges — every *effective* transition is broadcast exactly
        once and applied at most once per machine, which keeps the
        membership generation counters equal across workers (the
        ft_epoch report rounds compare them)."""
        machine = self.machine
        src = machine.local_ranks[0]
        for dst in machine.remote_ranks:
            machine.am.request_nb(
                src, dst, _MEMBER, args=(op, peer),
                category=AMCategory.SHORT, best_effort=True,
                kind="fail.member",
            )

    def transition(self, op: str, peer: int, gossip: bool = True) -> None:
        """Apply membership transition ``op`` to ``peer`` if it still
        changes anything: the one way membership moves (DESIGN §12.2).

        ``op`` is a verdict, ``"suspect"`` (level one: park traffic
        toward ``peer`` in the transport quarantine, reconcile nothing)
        or ``"confirm"`` (level two: fail the quarantined traffic,
        reconcile the survivors' finish frames and re-execute the lost
        spawns), or a heal, which only a delivery from a live peer
        earns: ``"unsuspect"`` (flush the quarantine) or ``"resurrect"``
        (replay the reconciliation algebra in reverse).  A heal bumps
        the peer's incarnation.  ``gossip=False`` applies a transition
        another machine made; one already applied is a no-op."""
        levels, step = _TRANSITIONS[op]
        machine = self.machine
        heal = op in _HEALS
        if ((peer in self.suspects) + (peer in self.confirmed) not in levels
                or (heal and peer in machine.dead_images)):
            return
        move = getattr(machine.network, step)
        if op != "unsuspect":
            move(peer)
        self.gen += 1
        now = machine.sim.now
        name = f"fail.{op}ed"
        machine.stats.incr(name)
        args = {"gen": self.gen}
        if heal:
            self.incarnations[peer] += 1
            args["incarnation"] = self.incarnations[peer]
            self.recovered.add(peer)
            t0 = self.suspected_at.pop(peer, None)
            if t0 is not None:
                self.time_to_unsuspect.append(now - t0)
        else:
            if op == "suspect":
                self.suspected_at[peer] = now
            t_dead = machine.dead_at.get(peer)
            if t_dead is None:
                machine.stats.incr(f"fail.false_{op}ed")
            else:
                getattr(self, f"{op}_latency").append(now - t_dead)
        if machine.tracer is not None:
            machine.tracer.instant(peer, name, now, args=args)
        if heal:
            self._heal_frames(peer)
            if op == "unsuspect":
                # Flush after the heal: quarantined deliveries must find
                # the frames un-reconciled when their counter callbacks
                # run.
                move(peer)
        if gossip:
            self._gossip(op, peer)
        if not heal:
            if op == "confirm":
                self._reconcile_frames(peer)
            self.check_stop()

    def _reconcile_frames(self, peer: int) -> None:
        """``peer`` was CONFIRMED dead: reconcile every surviving image's
        finish frames and, with recovery enabled, re-execute the lost
        spawns from their surviving senders' ledgers (only open blocks
        keep one, see ``FinishFrame.close``).  Mere suspicion never
        reaches here: reconciling on a false suspicion would
        double-count when the straggler's delayed messages land."""
        machine = self.machine
        for (rank, _key), frame in sorted(machine._frames.items()):
            if rank in machine.dead_images or rank in self.confirmed:
                continue
            entries = frame.reconcile_failure(peer)
            if entries:
                self.orphans[peer] = self.orphans.get(peer, 0) + len(entries)
                spawn.reexecute_lost(frame, entries)

    def _heal_frames(self, peer: int) -> None:
        """``peer`` spoke again: every frame that reconciled it away adds
        its exact-subtraction stamp back, so its counts are neither
        dropped nor double-subtracted (DESIGN §12)."""
        machine = self.machine
        for (rank, _key), frame in sorted(machine._frames.items()):
            if rank not in machine.dead_images:
                frame.unreconcile(peer)
        self.orphans.pop(peer, None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def alive_members(self, team) -> list[int]:
        """Team members not currently suspected, in world-rank order —
        the responsiveness view (who to pick as a coordinator, who to
        wait on synchronously).  NOT a soundness boundary: use
        :meth:`required_members` for any quorum whose completeness a
        correctness argument depends on."""
        return [r for r in sorted(team) if r not in self.suspects]

    def required_members(self, team) -> list[int]:
        """Team members a finish verdict must account for: everyone not
        CONFIRMED dead.  A merely-suspected member is alive until proven
        otherwise and still holds un-reconciled counters; summing
        ``sent - completed`` over a subset that excludes it is not a
        consistent cut — its unmatched completions and sends flow
        through the survivors' counters with opposite signs and can
        cancel to a spurious zero verdict while it holds live work.
        Confirmed deaths are excluded exactly because
        ``reconcile_failure`` folded their stamps into the survivors."""
        return [r for r in sorted(team) if r not in self.confirmed]

    def has_failed(self, team) -> bool:
        """Whether any team member is CONFIRMED dead (mere suspicion is
        revocable and must not abort anything)."""
        return any(r in self.confirmed for r in team)


def _heartbeat_handler(ctx) -> None:
    """Inline no-op: the delivery itself refreshed the last-heard clock
    through the transport's on_delivery hook."""


def _make_member_handler(machine):
    """Apply a gossiped membership transition; its guard makes an
    already-applied (or since-reversed) one a no-op, which keeps the
    per-machine generation counters converging in process mode (see
    :meth:`FailureService._gossip`)."""
    def handle_member(ctx, op: str, peer: int) -> None:
        if machine.failure is not None:
            machine.failure.transition(op, peer, gossip=False)
    return handle_member
