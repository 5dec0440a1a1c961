"""Deterministic network fault injection.

A :class:`FaultPlan` describes how the simulated interconnect misbehaves.
:class:`~repro.net.transport.Network` consults the plan on every wire
transmission and every acknowledgment, so with a plan installed the
machine exercises exactly the hostile-network conditions the paper's
termination detector must tolerate (lost counter messages, duplicated
deliveries, reordering beyond the latency jitter already modelled).

Every decision is driven by one :class:`numpy.random.Generator` owned by
the plan, so a run with the same plan seed (or the same machine seed,
when the plan is left unseeded and the machine derives one from its
:class:`~repro.sim.rng.RngPool`) replays the identical fault sequence —
chaos runs are as reproducible as clean ones.

Fault classes
-------------
- *drops*: each wire transmission of a remote message is lost with
  probability ``drop`` (overridable per directed link via ``link_drop``);
  acknowledgments are lost with probability ``ack_drop``.
- *duplication*: a transmission that survives the drop roll is delivered
  twice with probability ``duplicate``; the copy arrives later by a
  random fraction of the wire latency.
- *reorder*: every transmission gains an extra delay uniform in
  ``[0, reorder * latency)``, reordering messages between a pair far
  more aggressively than ``MachineParams.jitter`` alone.
- *NIC stalls*: during a :class:`NicStall` window an image's NIC injects
  nothing; sends scheduled inside the window wait for its end.
- *scripted drops*: :meth:`FaultPlan.drop_nth` kills the N-th message of
  a given ``kind`` (its first transmission only — retransmissions pass),
  for surgical regression tests such as "lose the first ``coll.up`` of
  the termination wave".

Gray failures (DESIGN §12)
--------------------------
Beyond clean losses and fail-stop crashes the plan scripts *gray*
failures — conditions that look like a crash to a timeout detector but
are not one:

- *stragglers* (:class:`Straggler` / :meth:`FaultPlan.straggle`): a
  per-image service-time multiplier over a window.  The transport
  stretches the image's NIC injection times by the factor, the image's
  modelled computation slows, and its failure-detector task ticks at the
  degraded rate — so its heartbeats arrive late, exactly the signature
  that flips a fixed-timeout detector.
- *partitions* (:class:`Partition` / :meth:`FaultPlan.partition`): the
  images split into groups at ``start``; every transmission crossing a
  group boundary is lost until ``heal_at`` (forever when None).
- *flapping links* (:class:`LinkFlap` / :meth:`FaultPlan.flap_link`): a
  directed link alternates down/up windows on a fixed cadence.

All three are pure functions of virtual time (:meth:`service_factor`,
:meth:`link_down`) — no rng draws — so adding them never shifts the
drop/duplicate decision stream of an existing seed.

Schedule-space composition (DESIGN §10 x §12)
---------------------------------------------
:meth:`crash_choice` and :meth:`partition_choice` script fault *menus*
instead of fixed timings: when the machine carries a schedule source,
each menu becomes a ``"fault"`` :class:`~repro.sim.engine.ChoicePoint`
(alternative 0 = fault absent, k = the k-th scripted timing), resolved
once at machine construction via :meth:`resolve_choices`.  Crash and
partition timing thereby lives in the same recorded, replayable,
minimizable search space as message ordering.

Loopback messages (``src == dst``) never fault: they model in-memory
hand-off, not wire traffic.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

__all__ = ["FaultPlan", "LinkFlap", "NicStall", "Partition", "Straggler"]


@dataclass(frozen=True)
class NicStall:
    """A window during which one image's NIC injects nothing."""

    image: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.image < 0:
            raise ValueError(f"negative image {self.image}")
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                f"stall window needs start >= 0 and duration > 0, got "
                f"start={self.start!r} duration={self.duration!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Straggler:
    """A per-image service-time multiplier over a window.

    While active (``degrade_at <= t < recover_at``) every modelled
    service time on ``image`` — NIC injection, ``compute`` durations,
    its detector's tick period — is stretched by ``factor``.  The image
    stays correct, just slow: the canonical gray failure."""

    image: int
    factor: float
    degrade_at: float = 0.0
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.image < 0:
            raise ValueError(f"negative image {self.image}")
        if self.factor < 1.0:
            raise ValueError(
                f"straggler factor must be >= 1, got {self.factor!r}")
        if self.degrade_at < 0:
            raise ValueError(f"negative degrade_at {self.degrade_at!r}")
        if self.recover_at is not None and self.recover_at <= self.degrade_at:
            raise ValueError(
                f"recover_at must exceed degrade_at, got "
                f"degrade_at={self.degrade_at!r} recover_at={self.recover_at!r}")

    def applies(self, t: float) -> bool:
        return (self.degrade_at <= t
                and (self.recover_at is None or t < self.recover_at))


@dataclass(frozen=True)
class Partition:
    """A group-split of the images over ``[start, heal_at)``.

    While active, any transmission whose endpoints both appear in
    ``groups`` but in *different* groups is lost on the wire.  Images
    not listed in any group are unaffected (they can reach everyone).
    ``heal_at=None`` means the partition never heals."""

    groups: tuple
    start: float
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        norm = tuple(tuple(sorted(int(i) for i in g)) for g in self.groups)
        object.__setattr__(self, "groups", tuple(sorted(norm)))
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        side: dict[int, int] = {}
        for gi, group in enumerate(self.groups):
            if not group:
                raise ValueError("partition groups must be non-empty")
            for image in group:
                if image < 0:
                    raise ValueError(f"negative image {image}")
                if image in side:
                    raise ValueError(
                        f"image {image} appears in two partition groups")
                side[image] = gi
        if self.start < 0:
            raise ValueError(f"negative partition start {self.start!r}")
        if self.heal_at is not None and self.heal_at <= self.start:
            raise ValueError(
                f"heal_at must exceed start, got start={self.start!r} "
                f"heal_at={self.heal_at!r}")
        object.__setattr__(self, "_side", side)

    def severs(self, src: int, dst: int, t: float) -> bool:
        if t < self.start or (self.heal_at is not None and t >= self.heal_at):
            return False
        side = self._side
        a = side.get(src)
        return a is not None and a != side.get(dst, a)


@dataclass(frozen=True)
class LinkFlap:
    """A directed link that alternates down/up windows on a fixed
    cadence: down for ``down_for``, up for ``up_for``, repeating from
    ``start`` until ``until`` (forever when None)."""

    src: int
    dst: int
    start: float
    down_for: float
    up_for: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"negative image in link ({self.src}, {self.dst})")
        if self.src == self.dst:
            raise ValueError("loopback links never fault")
        if self.start < 0:
            raise ValueError(f"negative flap start {self.start!r}")
        if self.down_for <= 0 or self.up_for <= 0:
            raise ValueError(
                f"flap windows need down_for > 0 and up_for > 0, got "
                f"down_for={self.down_for!r} up_for={self.up_for!r}")
        if self.until is not None and self.until <= self.start:
            raise ValueError(
                f"until must exceed start, got start={self.start!r} "
                f"until={self.until!r}")

    def down(self, t: float) -> bool:
        if t < self.start or (self.until is not None and t >= self.until):
            return False
        phase = math.fmod(t - self.start, self.down_for + self.up_for)
        return phase < self.down_for


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1), got "
                         f"{value!r}")
    return value


class FaultPlan:
    """A reproducible script of network misbehaviour.

    Parameters
    ----------
    drop:
        Default per-transmission drop probability for remote messages.
    duplicate:
        Probability a surviving transmission is delivered twice.
    reorder:
        Extra delay factor: each transmission is delayed by an extra
        uniform ``[0, reorder * latency)`` (0 disables).
    ack_drop:
        Drop probability for protocol acknowledgments; defaults to
        ``drop``.
    link_drop:
        Per-directed-link overrides, ``{(src, dst): probability}``.
    stalls:
        Iterable of :class:`NicStall` windows.
    seed:
        Seed for the plan's random stream.  ``None`` (default) lets the
        machine derive the stream from its own seed, so chaos varies
        with ``Machine(seed=...)`` exactly like image rngs do.

    A plan holds mutable per-run state (rng position, per-kind message
    counts); build a fresh plan — or :meth:`clone` one — per simulation
    run.
    """

    def __init__(self, drop: float = 0.0, duplicate: float = 0.0,
                 reorder: float = 0.0,
                 ack_drop: Optional[float] = None,
                 link_drop: Optional[dict] = None,
                 stalls: Iterable[NicStall] = (),
                 stragglers: Iterable[Straggler] = (),
                 partitions: Iterable[Partition] = (),
                 flaps: Iterable[LinkFlap] = (),
                 seed: Optional[int] = None):
        self.drop = _check_prob("drop", drop)
        self.duplicate = _check_prob("duplicate", duplicate)
        self.reorder = float(reorder)
        if self.reorder < 0:
            raise ValueError(f"reorder must be non-negative, got {reorder!r}")
        self.ack_drop = (self.drop if ack_drop is None
                         else _check_prob("ack_drop", ack_drop))
        self.link_drop = {}
        for link, p in (link_drop or {}).items():
            src, dst = link
            self.link_drop[(int(src), int(dst))] = _check_prob(
                f"link_drop[{link}]", p)
        self.stalls = tuple(stalls)
        for stall in self.stalls:
            if not isinstance(stall, NicStall):
                raise TypeError(f"stalls must be NicStall, got {stall!r}")
        self.stragglers = tuple(stragglers)
        for s in self.stragglers:
            if not isinstance(s, Straggler):
                raise TypeError(f"stragglers must be Straggler, got {s!r}")
        self.partitions = tuple(partitions)
        for p in self.partitions:
            if not isinstance(p, Partition):
                raise TypeError(f"partitions must be Partition, got {p!r}")
        self.flaps = tuple(flaps)
        for f in self.flaps:
            if not isinstance(f, LinkFlap):
                raise TypeError(f"flaps must be LinkFlap, got {f!r}")
        self.seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._scripted: set[tuple[str, int]] = set()
        self._kind_counts: dict[str, int] = defaultdict(int)
        #: Fail-stop crash scripts: {image: time} and {image: send count}.
        self.crashes: dict[int, float] = {}
        self.crash_after_sends: dict[int, int] = {}
        self._send_counts: dict[int, int] = defaultdict(int)
        #: Fault *menus* for schedule-space composition (DESIGN §12):
        #: {image: candidate crash times} and
        #: [(groups, candidate starts, heal_after)].  Resolved to
        #: concrete faults per run by :meth:`resolve_choices`.
        self.crash_choices: dict[int, tuple] = {}
        self.partition_choices: list[tuple] = []
        # Per-run resolution of the menus (never copied by clone).
        self._resolved_crashes: dict[int, float] = {}
        self._resolved_partitions: tuple = ()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def drop_nth(self, kind: str, n: Union[int, Iterable[int]]) -> "FaultPlan":
        """Script a targeted loss: drop the ``n``-th message (1-based)
        of ``kind`` on its first transmission.  Chainable; ``n`` may be
        one index or an iterable of indices."""
        indices = (n,) if isinstance(n, int) else tuple(n)
        for i in indices:
            if i < 1:
                raise ValueError(f"message indices are 1-based, got {i}")
            self._scripted.add((kind, int(i)))
        return self

    def crash_at(self, image: int, time: float) -> "FaultPlan":
        """Script a fail-stop crash of ``image`` at virtual ``time``.
        Chainable; one crash per image (the earliest time wins)."""
        if image < 0:
            raise ValueError(f"negative image {image}")
        time = float(time)
        if time < 0:
            raise ValueError(f"negative crash time {time!r}")
        if image in self.crashes:
            self.crashes[image] = min(self.crashes[image], time)
        else:
            self.crashes[image] = time
        return self

    def crash_after_n_sends(self, image: int, n: int) -> "FaultPlan":
        """Script a fail-stop crash of ``image`` the instant it issues
        its ``n``-th original send (1-based; retransmissions do not
        count).  Chainable; the smallest ``n`` per image wins."""
        if image < 0:
            raise ValueError(f"negative image {image}")
        if n < 1:
            raise ValueError(f"send counts are 1-based, got {n}")
        n = int(n)
        if image in self.crash_after_sends:
            self.crash_after_sends[image] = min(
                self.crash_after_sends[image], n)
        else:
            self.crash_after_sends[image] = n
        return self

    def straggle(self, image: int, factor: float, degrade_at: float = 0.0,
                 recover_at: Optional[float] = None) -> "FaultPlan":
        """Script a service-time slowdown: ``image`` runs ``factor``×
        slower over ``[degrade_at, recover_at)``.  Chainable."""
        self.stragglers += (Straggler(image, float(factor),
                                      float(degrade_at),
                                      None if recover_at is None
                                      else float(recover_at)),)
        return self

    def partition(self, groups: Iterable[Iterable[int]], at: float,
                  heal_at: Optional[float] = None) -> "FaultPlan":
        """Script a network partition: the listed images split into
        ``groups`` at time ``at``; cross-group transmissions are lost
        until ``heal_at`` (forever when None).  Chainable."""
        self.partitions += (Partition(tuple(tuple(g) for g in groups),
                                      float(at),
                                      None if heal_at is None
                                      else float(heal_at)),)
        return self

    def flap_link(self, src: int, dst: int, at: float, down_for: float,
                  up_for: float, until: Optional[float] = None) -> "FaultPlan":
        """Script a flapping directed link: from ``at``, down for
        ``down_for`` then up for ``up_for``, repeating until ``until``
        (forever when None).  Chainable."""
        self.flaps += (LinkFlap(int(src), int(dst), float(at),
                                float(down_for), float(up_for),
                                None if until is None else float(until)),)
        return self

    def crash_choice(self, image: int,
                     times: Iterable[float]) -> "FaultPlan":
        """Script a crash *menu*: when the run carries a schedule
        source, a ``"fault"`` choice point picks one of ``times`` for a
        fail-stop crash of ``image`` — or alternative 0, no crash.
        Without a source the menu resolves to "no crash".  Chainable;
        times are canonicalized sorted so the alternative indices are
        order-independent."""
        if image < 0:
            raise ValueError(f"negative image {image}")
        ts = tuple(sorted(float(t) for t in times))
        if not ts:
            raise ValueError("crash_choice needs at least one candidate time")
        if ts[0] < 0:
            raise ValueError(f"negative crash time {ts[0]!r}")
        self.crash_choices[image] = tuple(
            sorted(set(self.crash_choices.get(image, ()) + ts)))
        return self

    def partition_choice(self, groups: Iterable[Iterable[int]],
                         starts: Iterable[float],
                         heal_after: Optional[float] = None) -> "FaultPlan":
        """Script a partition *menu*: a ``"fault"`` choice point picks
        one of ``starts`` (or no partition) for a group-split that heals
        ``heal_after`` later (never, when None).  Chainable."""
        norm = tuple(tuple(sorted(int(i) for i in g)) for g in groups)
        ts = tuple(sorted(float(t) for t in starts))
        if not ts:
            raise ValueError(
                "partition_choice needs at least one candidate start")
        if ts[0] < 0:
            raise ValueError(f"negative partition start {ts[0]!r}")
        if heal_after is not None and heal_after <= 0:
            raise ValueError(f"heal_after must be positive, got {heal_after!r}")
        # Validate the groups eagerly by building a throwaway Partition.
        Partition(norm, ts[0],
                  None if heal_after is None else ts[0] + heal_after)
        self.partition_choices.append(
            (tuple(sorted(norm)), ts,
             None if heal_after is None else float(heal_after)))
        return self

    def resolve_choices(self, source) -> None:
        """Resolve every fault menu against a schedule source (one
        ``"fault"`` :class:`~repro.sim.engine.ChoicePoint` per menu, in
        deterministic order).  ``source=None`` resolves every menu to
        "no fault".  Called once per run by the machine; per-run state,
        never copied by :meth:`clone`."""
        self._resolved_crashes = {}
        self._resolved_partitions = ()
        if source is None:
            return
        from repro.sim.engine import ChoicePoint
        for image in sorted(self.crash_choices):
            times = self.crash_choices[image]
            labels = ("none",) + tuple(f"t={t:g}" for t in times)
            pick = source.choose(ChoicePoint(
                "fault", len(times) + 1, labels=labels,
                key=f"crash@{image}"))
            if pick:
                self._resolved_crashes[image] = times[pick - 1]
        resolved = []
        for i, (groups, starts, heal_after) in enumerate(
                self.partition_choices):
            labels = ("none",) + tuple(f"t={t:g}" for t in starts)
            pick = source.choose(ChoicePoint(
                "fault", len(starts) + 1, labels=labels,
                key=f"partition@{i}"))
            if pick:
                t0 = starts[pick - 1]
                resolved.append(Partition(
                    groups, t0,
                    None if heal_after is None else t0 + heal_after))
        self._resolved_partitions = tuple(resolved)

    def resolved_faults(self) -> dict[str, str]:
        """How this run's fault menus resolved, as ``{menu key: chosen
        label}`` using the same keys/labels the ``"fault"`` choice
        points carry (``crash@<image>`` / ``partition@<i>``, labels
        ``"none"`` or ``"t=<time>"``).  The fuzzing service records this
        next to each finding and feeds it to the coverage map, so menu
        resolutions are first-class coverage features.  Empty when the
        plan has no menus; per-run state, like the resolutions
        themselves."""
        picks: dict[str, str] = {}
        for image in sorted(self.crash_choices):
            t = self._resolved_crashes.get(image)
            picks[f"crash@{image}"] = "none" if t is None else f"t={t:g}"
        resolved_starts = {p.groups: p.start
                          for p in self._resolved_partitions}
        for i, (groups, starts, heal_after) in enumerate(
                self.partition_choices):
            t0 = resolved_starts.get(groups)
            picks[f"partition@{i}"] = ("none" if t0 is None
                                       else f"t={t0:g}")
        return picks

    def scheduled_crashes(self) -> dict[int, float]:
        """Concrete fail-stop crashes for this run: the fixed
        ``crash_at`` script merged with any menu picks (earliest time
        wins per image)."""
        merged = dict(self.crashes)
        for image, t in self._resolved_crashes.items():
            merged[image] = min(merged.get(image, t), t)
        return merged

    def count_send(self, image: int) -> bool:
        """Count one original send by ``image``; True if it just hit a
        scripted ``crash_after_n_sends`` threshold."""
        if image not in self.crash_after_sends:
            return False
        self._send_counts[image] += 1
        return self._send_counts[image] == self.crash_after_sends[image]

    def clone(self) -> "FaultPlan":
        """A fresh plan with identical configuration and virgin per-run
        state (rng position, kind counts): the config round trip."""
        return self.from_config(self.to_config())

    def bind(self, rng: np.random.Generator) -> None:
        """Install the random stream (the machine calls this to derive
        fault decisions from its master seed when the plan is unseeded)."""
        self._rng = rng

    def to_config(self) -> dict:
        """A JSON-serializable description of the plan.  Together with a
        machine seed this pins every fault decision: the rng stream and
        the per-kind scripted-drop script are both functions of the
        config, so :meth:`from_config` rebuilds a plan whose decision
        sequence replays identically.  Used by the schedule-exploration
        subsystem to embed fault plans in replayable schedules."""
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "ack_drop": self.ack_drop,
            "link_drop": [[src, dst, p]
                          for (src, dst), p in sorted(self.link_drop.items())],
            "stalls": [[s.image, s.start, s.duration] for s in self.stalls],
            "scripted": sorted([kind, n] for kind, n in self._scripted),
            "crashes": [[image, t] for image, t in sorted(self.crashes.items())],
            "crash_after_sends": [
                [image, n]
                for image, n in sorted(self.crash_after_sends.items())],
            "stragglers": [[s.image, s.factor, s.degrade_at, s.recover_at]
                           for s in self.stragglers],
            "partitions": [[[list(g) for g in p.groups], p.start, p.heal_at]
                           for p in self.partitions],
            "flaps": [[f.src, f.dst, f.start, f.down_for, f.up_for, f.until]
                      for f in self.flaps],
            "crash_choices": [[image, list(times)]
                              for image, times
                              in sorted(self.crash_choices.items())],
            "partition_choices": [
                [[list(g) for g in groups], list(starts), heal_after]
                for groups, starts, heal_after in self.partition_choices],
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, config: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_config` output (virgin per-run
        state, same decision sequence once bound to the same seed)."""
        plan = cls(
            drop=config.get("drop", 0.0),
            duplicate=config.get("duplicate", 0.0),
            reorder=config.get("reorder", 0.0),
            ack_drop=config.get("ack_drop"),
            link_drop={(src, dst): p
                       for src, dst, p in config.get("link_drop", [])},
            stalls=[NicStall(image, start, duration)
                    for image, start, duration in config.get("stalls", [])],
            stragglers=[Straggler(int(image), factor, degrade_at, recover_at)
                        for image, factor, degrade_at, recover_at
                        in config.get("stragglers", [])],
            partitions=[Partition(tuple(tuple(g) for g in groups),
                                  start, heal_at)
                        for groups, start, heal_at
                        in config.get("partitions", [])],
            flaps=[LinkFlap(int(src), int(dst), start, down_for, up_for,
                            until)
                   for src, dst, start, down_for, up_for, until
                   in config.get("flaps", [])],
            seed=config.get("seed"),
        )
        for kind, n in config.get("scripted", []):
            plan.drop_nth(kind, int(n))
        for image, t in config.get("crashes", []):
            plan.crash_at(int(image), float(t))
        for image, n in config.get("crash_after_sends", []):
            plan.crash_after_n_sends(int(image), int(n))
        for image, times in config.get("crash_choices", []):
            plan.crash_choice(int(image), times)
        for groups, starts, heal_after in config.get("partition_choices", []):
            plan.partition_choice(groups, starts, heal_after)
        return plan

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(0 if self.seed is None else self.seed))
        return self._rng

    @property
    def active(self) -> bool:
        """Whether the plan can fault anything at all."""
        return bool(self.drop or self.duplicate or self.reorder
                    or self.ack_drop or self.link_drop or self.stalls
                    or self._scripted or self.crashes
                    or self.crash_after_sends or self.stragglers
                    or self.partitions or self.flaps
                    or self.crash_choices or self.partition_choices)

    # ------------------------------------------------------------------ #
    # Decisions (one call per transmission / ack, in simulation order)
    # ------------------------------------------------------------------ #

    def take_scripted_drop(self, kind: str) -> bool:
        """Count one original send of ``kind``; True if its index was
        scripted to drop.  Called exactly once per message (not per
        retransmission)."""
        self._kind_counts[kind] += 1
        return (kind, self._kind_counts[kind]) in self._scripted

    def drop_probability(self, src: int, dst: int) -> float:
        return self.link_drop.get((src, dst), self.drop)

    def roll_drop(self, src: int, dst: int) -> bool:
        p = self.drop_probability(src, dst)
        return p > 0.0 and float(self.rng.random()) < p

    def roll_duplicate(self) -> bool:
        return (self.duplicate > 0.0
                and float(self.rng.random()) < self.duplicate)

    def roll_ack_drop(self, src: int, dst: int) -> bool:
        return (self.ack_drop > 0.0
                and float(self.rng.random()) < self.ack_drop)

    def extra_latency(self, latency: float) -> float:
        """Reorder jitter: an extra delay in ``[0, reorder * latency)``."""
        if self.reorder <= 0.0:
            return 0.0
        return latency * self.reorder * float(self.rng.random())

    def duplicate_lag(self, latency: float) -> float:
        """How far behind the original the duplicate copy arrives."""
        return latency * (0.1 + 0.9 * float(self.rng.random()))

    def release_time(self, image: int, t: float) -> float:
        """Earliest time ``image``'s NIC may inject at or after ``t``
        (pushed past any stall window containing it)."""
        released = t
        # windows may chain; iterate until no window contains the time
        moved = True
        while moved:
            moved = False
            for stall in self.stalls:
                if stall.image == image and stall.start <= released < stall.end:
                    released = stall.end
                    moved = True
        return released

    def service_factor(self, image: int, t: float) -> float:
        """Service-time multiplier for ``image`` at time ``t`` (1.0 when
        no straggler window applies; overlapping windows take the worst
        factor).  Pure in ``t`` — no rng draw."""
        factor = 1.0
        for s in self.stragglers:
            if s.image == image and s.applies(t) and s.factor > factor:
                factor = s.factor
        return factor

    def link_down(self, src: int, dst: int, t: float) -> bool:
        """Whether the directed link ``src -> dst`` is severed at time
        ``t`` by a partition (scripted or menu-resolved) or a flap
        window.  Pure in ``t`` — no rng draw."""
        for p in self.partitions:
            if p.severs(src, dst, t):
                return True
        for p in self._resolved_partitions:
            if p.severs(src, dst, t):
                return True
        for f in self.flaps:
            if f.src == src and f.dst == dst and f.down(t):
                return True
        return False

    @property
    def gray(self) -> bool:
        """Whether any gray-failure script could affect the wire
        (checked once per transmission; cheap tuple truthiness)."""
        return bool(self.partitions or self._resolved_partitions
                    or self.flaps)

    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        parts = [f"drop={self.drop}", f"duplicate={self.duplicate}"]
        if self.reorder:
            parts.append(f"reorder={self.reorder}")
        if self.ack_drop != self.drop:
            parts.append(f"ack_drop={self.ack_drop}")
        if self.link_drop:
            parts.append(f"link_drop={self.link_drop}")
        if self.stalls:
            parts.append(f"stalls={len(self.stalls)}")
        if self._scripted:
            parts.append(f"scripted={sorted(self._scripted)}")
        if self.crashes:
            parts.append(f"crashes={sorted(self.crashes.items())}")
        if self.crash_after_sends:
            parts.append(
                f"crash_after_sends={sorted(self.crash_after_sends.items())}")
        if self.stragglers:
            parts.append(f"stragglers={len(self.stragglers)}")
        if self.partitions:
            parts.append(f"partitions={len(self.partitions)}")
        if self.flaps:
            parts.append(f"flaps={len(self.flaps)}")
        if self.crash_choices:
            parts.append(f"crash_choices={sorted(self.crash_choices.items())}")
        if self.partition_choices:
            parts.append(f"partition_choices={len(self.partition_choices)}")
        parts.append(f"seed={self.seed}")
        return f"FaultPlan({', '.join(parts)})"

    __repr__ = describe
