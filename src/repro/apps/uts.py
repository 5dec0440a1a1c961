"""Unbalanced Tree Search (paper §IV-C).

UTS [Olivier et al.] counts the nodes of an implicit tree: each node is a
20-byte SHA-1 descriptor; a node's child count is drawn from a geometric
distribution seeded by the descriptor, so the tree's shape is both highly
unbalanced and fully deterministic.  The paper runs the T1WL-style
geometric configuration (expected branching 4, bounded depth, root seed
19).

The distributed algorithm is the paper's Fig. 15 composite of work
sharing and work stealing [Saraswat et al.]:

1. *Initial work sharing*: image 0 expands the first levels of the tree
   and round-robins the frontier to all images (via shipped functions —
   each push is capped at 9 descriptors by the medium-AM payload limit,
   exactly the constraint the paper reports);
2. *Randomized stealing*: an image that runs dry ships ``steal_work`` to
   one random victim (a steal moves at most 9 items);
3. *Lifelines*: after its steal attempt the image establishes lifelines
   on its hypercube neighbors with shipped ``set_lifeline`` functions
   (one round trip each); an image that later finds surplus work pushes
   a chunk to each incoming lifeline;
4. *Termination*: the whole computation sits in one ``finish`` block —
   a barrier cannot detect termination here because lifeline pushes make
   any image receptive to new work at any time (§IV-C.2d).
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.spawn import SPAWN_HEADER_BYTES


#: bytes per node descriptor (the SHA-1 digest)
DESCRIPTOR_BYTES = 20

#: a child index or a depth on the wire, the descriptor's first word as
#: the child-count draw, and one packed work item, compiled once
_I32 = struct.Struct(">i")
_U32 = struct.Struct(">I")
_ITEM = struct.Struct(f">{DESCRIPTOR_BYTES}si")


@dataclass(frozen=True)
class TreeParams:
    """Shape of the implicit tree.

    The paper's run uses ``b0=4, max_depth=18, seed=19`` (T1WL-style
    geometric tree); defaults here are scaled down so library tests and
    benchmarks finish in seconds — pass the paper's values to grow the
    full tree.
    """

    b0: float = 4.0
    max_depth: int = 8
    seed: int = 19

    def __post_init__(self) -> None:
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")

    @classmethod
    def paper(cls) -> "TreeParams":
        """The configuration of §IV-C.3: expected branching 4, depth
        bound 18, root seed 19.  The resulting tree has billions of
        nodes — only use it for real (hours-long) reproduction runs."""
        return cls(b0=4.0, max_depth=18, seed=19)


def root_descriptor(params: TreeParams) -> bytes:
    """The SHA-1 descriptor of the root node."""
    return hashlib.sha1(_I32.pack(params.seed)).digest()


def child_descriptor(parent: bytes, index: int) -> bytes:
    """Descriptor of the ``index``-th child (SHA-1 of parent ∥ index)."""
    return hashlib.sha1(parent + _I32.pack(index)).digest()


def num_children(descriptor: bytes, depth: int, params: TreeParams) -> int:
    """Geometric child count with mean ``b0``, zero at the depth bound.

    Follows the UTS GEO/fixed shape function: draw u ∈ [0,1) from the
    descriptor and return ``floor(log(1-u) / log(1 - 1/(1+b0)))``.
    """
    if depth >= params.max_depth:
        return 0
    # low 32 bits of the descriptor as a uniform draw
    u = _U32.unpack_from(descriptor)[0] / 2.0 ** 32
    if u >= 1.0:  # pragma: no cover - unreachable with 32-bit draw
        u = 1.0 - 2.0 ** -33
    return int(math.floor(math.log(1.0 - u) / _log_denominator(params.b0)))


@functools.lru_cache(maxsize=None)
def _log_denominator(b0: float) -> float:
    """``log(1 - 1/(1+b0))``, the same for every node of a tree."""
    return math.log(1.0 - 1.0 / (1.0 + b0))


def expand(descriptor: bytes, depth: int, params: TreeParams
           ) -> list[tuple[bytes, int]]:
    """All (descriptor, depth) children of a node."""
    n = num_children(descriptor, depth, params)
    return [(child_descriptor(descriptor, i), depth + 1) for i in range(n)]


def sequential_tree_size(params: TreeParams) -> int:
    """Count the whole tree on one thread (ground truth for tests and
    the efficiency baseline T1)."""
    count = 0
    stack = [(root_descriptor(params), 0)]
    while stack:
        desc, depth = stack.pop()
        count += 1
        stack.extend(expand(desc, depth, params))
    return count


# --------------------------------------------------------------------- #
# The distributed benchmark
# --------------------------------------------------------------------- #

@dataclass
class UTSConfig:
    """Tunables of the distributed run."""

    tree: TreeParams = field(default_factory=TreeParams)
    #: simulated CPU seconds to process one node (hash + bookkeeping)
    node_cost: float = 2.0e-6
    #: levels image 0 expands before the initial distribution
    init_sharing_depth: int = 2
    #: termination detector for the enclosing finish (Fig. 18 compares
    #: "epoch" against "wave_unbounded")
    detector: str = "epoch"


@dataclass
class UTSResult:
    """Per-run measurements (see the harness for derived figures)."""

    total_nodes: int
    sim_time: float
    nodes_per_image: list[int]
    busy_per_image: list[float]
    steals_attempted: int
    steals_successful: int
    lifeline_pushes: int
    finish_rounds: int
    #: chaos-mode transport counters (zero on a clean network)
    retransmits: int = 0
    drops: int = 0
    dups: int = 0
    #: race-detector findings (0 unless racecheck was enabled AND racy)
    races: int = 0
    #: world ranks that fail-stopped during the run (crash injection)
    failed_images: tuple = ()
    #: shipped functions re-executed on survivors by recovery
    recovered_spawns: int = 0


class _UTSState:
    """Per-image mutable state, shared by the main program and every
    shipped function executing on the image."""

    def __init__(self) -> None:
        self.queue: list[tuple[bytes, int]] = []
        self.nodes = 0
        self.processing = False
        self.lifelines_in: deque[int] = deque()  # team ranks waiting on me
        self.lifelines_set = False
        # Steal backoff: consecutive fruitless steal rounds, steal rounds
        # still to skip, and whether a steal is in flight unanswered.
        self.steal_fails = 0
        self.steal_skip = 0
        self.steal_pending = False


#: packed wire bytes per work item (20-byte digest + 4-byte depth)
ITEM_BYTES = DESCRIPTOR_BYTES + 4

#: queue length at or below which an image will not give work away
SHARE_THRESHOLD = 4
#: exponential-backoff ceiling on consecutive steal rounds skipped by an
#: image whose previous steals came back empty (1, 2, 4, ... cap).  An
#: idle image in a work-starved phase otherwise re-steals on every
#: lifeline push it receives, flooding victims with fruitless
#: ``_steal_work`` shipments at scale.
STEAL_BACKOFF_CAP = 64


def chunk_limit(machine) -> int:
    """Work items per shipped push/steal reply: how many packed
    (descriptor, depth) records fit in one medium AM after the spawn
    header — 9 with default parameters, matching the paper's GASNet
    constraint (§IV-C.1a)."""
    budget = machine.params.am_medium_max - SPAWN_HEADER_BYTES
    return max(1, budget // ITEM_BYTES)


def pack_items(items: list[tuple[bytes, int]]) -> bytes:
    """Pack work items into the flat AM payload representation."""
    pack = _I32.pack
    out = []
    for i, (desc, depth) in enumerate(items):
        if len(desc) != DESCRIPTOR_BYTES:
            raise ValueError(
                f"work item {i}: descriptor of {len(desc)} bytes, "
                f"expected {DESCRIPTOR_BYTES}")
        out.append(desc + pack(depth))
    return b"".join(out)


def unpack_items(blob: bytes) -> list[tuple[bytes, int]]:
    """Inverse of :func:`pack_items`."""
    if len(blob) % ITEM_BYTES:
        raise ValueError(f"corrupt work payload of {len(blob)} bytes")
    return list(_ITEM.iter_unpack(blob))


def _uts_scratch(machine) -> dict:
    states = machine.scratch.get("uts.states")
    if states is None:
        states = machine.scratch["uts.states"] = {}
    return states


def _state_of(machine, rank: int) -> _UTSState:
    states = _uts_scratch(machine)
    if rank not in states:
        states[rank] = _UTSState()
    return states[rank]


def _process_loop(img, config: UTSConfig) -> Generator[Any, Any, None]:
    """Drain the local queue, sharing surplus along incoming lifelines.
    Re-entrant-safe: only one activation per image runs it at a time."""
    machine = img.machine
    st = _state_of(machine, img.rank)
    if st.processing:
        return
    st.processing = True
    try:
        while st.queue:
            desc, depth = st.queue.pop()
            yield from img.compute(config.node_cost)
            st.nodes += 1
            st.queue.extend(expand(desc, depth, config.tree))
            # Fig. 15 lines 7-11: if someone needs work, push them some.
            while (st.lifelines_in
                   and len(st.queue) > SHARE_THRESHOLD):
                target = st.lifelines_in.popleft()
                chunk = _take_chunk(machine, st)
                if not chunk:
                    st.lifelines_in.appendleft(target)
                    break
                machine.stats.incr("uts.lifeline_pushes")
                yield from img.spawn(_push_work, target, pack_items(chunk))
    finally:
        st.processing = False


def _take_chunk(machine, st: _UTSState) -> list:
    """Reserve up to a medium-AM's worth of work from the queue bottom
    (oldest nodes root the largest subtrees)."""
    give = min(chunk_limit(machine),
               max(0, len(st.queue) - SHARE_THRESHOLD // 2))
    chunk, st.queue[:give] = st.queue[:give], []
    return chunk


def _push_work(img, blob: bytes) -> Generator[Any, Any, None]:
    """Shipped: deliver packed work to an image and process it there."""
    machine = img.machine
    st = _state_of(machine, img.rank)
    st.queue.extend(unpack_items(blob))
    config = machine.scratch.get("uts.config")
    if config is None:
        return  # a worker whose main has not started: it does the work
    yield from _process_loop(img, config)
    # Having drained again, retry one random steal and re-arm the
    # lifelines (a served lifeline is consumed by the push, so the image
    # must re-register with its neighbors to stay receptive).
    if not st.queue and not st.processing:
        if st.steal_skip > 0:
            # Backing off: sit on the lifelines instead of re-stealing.
            st.steal_skip -= 1
            machine.stats.incr("uts.steals_skipped")
        else:
            yield from _attempt_steal(img)
        st.lifelines_set = False
        yield from _establish_lifelines(img)


def _steal_reply(img, blob: bytes) -> Generator[Any, Any, None]:
    """Shipped: a steal *response* — proof the thief's last steal paid
    off, which resets its backoff before the work is queued.  A separate
    entry point rather than a flag argument because the function
    identity rides in the fixed spawn header: the payload stays
    bit-identical to a lifeline push, so the chunk budget
    (:func:`chunk_limit`, the paper's 9-descriptor GASNet constraint)
    is unchanged."""
    st = _state_of(img.machine, img.rank)
    st.steal_fails = 0
    st.steal_skip = 0
    st.steal_pending = False
    yield from _push_work(img, blob)


def _steal_work(img, thief: int) -> Generator[Any, Any, None]:
    """Shipped: run at the victim; reserve a chunk and ship it back
    (Fig. 3: the whole steal is two one-way spawns)."""
    machine = img.machine
    st = _state_of(machine, img.rank)
    machine.stats.incr("uts.steals_attempted")
    if (machine.scratch.get("uts.config") is not None
            and len(st.queue) > SHARE_THRESHOLD):
        chunk = _take_chunk(machine, st)
        if chunk:
            machine.stats.incr("uts.steals_successful")
            yield from img.spawn(_steal_reply, thief, pack_items(chunk))


def _set_lifeline(img, waiter: int) -> Generator[Any, Any, None]:
    """Shipped: record that ``waiter`` wants work from this image.  A
    single round trip because the update runs where the lifeline list
    lives (§IV-C.2c)."""
    st = _state_of(img.machine, img.rank)
    if waiter not in st.lifelines_in:
        st.lifelines_in.append(waiter)
    yield from img.compute(1e-7)


def _attempt_steal(img) -> Generator[Any, Any, None]:
    """Ship one steal to a random victim (the paper's single attempt
    before quiescing into lifelines)."""
    st = _state_of(img.machine, img.rank)
    if st.steal_pending:
        # The previous round is still unanswered — it found nothing (a
        # successful steal would have reset this flag).  Back off
        # exponentially before the round we are about to send.
        st.steal_fails += 1
        st.steal_skip = min(1 << st.steal_fails, STEAL_BACKOFF_CAP)
    victim = int(img.rng.integers(0, img.nimages))
    if victim == img.team_rank():
        victim = (victim + 1) % img.nimages
    if img.nimages > 1:
        yield from img.spawn(_steal_work, victim, img.team_rank())
        st.steal_pending = True


def _establish_lifelines(img) -> Generator[Any, Any, None]:
    st = _state_of(img.machine, img.rank)
    if st.lifelines_set:
        return
    st.lifelines_set = True
    me = img.team_rank()
    for neighbor in img.team_world.hypercube_neighbors(me):
        yield from img.spawn(_set_lifeline, neighbor, me)


def uts_kernel(img, config: UTSConfig) -> Generator[Any, Any, int]:
    """The SPMD main program (paper Fig. 15)."""
    machine = img.machine
    machine.scratch.setdefault("uts.config", config)
    st = _state_of(machine, img.rank)

    yield from img.finish_begin()

    if img.rank == 0:
        # Initial work sharing: expand a few levels, deal the frontier.
        frontier = [(root_descriptor(config.tree), 0)]
        for _level in range(config.init_sharing_depth):
            next_frontier: list[tuple[bytes, int]] = []
            for desc, depth in frontier:
                yield from img.compute(config.node_cost)
                st.nodes += 1
                next_frontier.extend(expand(desc, depth, config.tree))
            frontier = next_frontier
        limit = chunk_limit(machine)
        dealt: list[list] = [[] for _ in range(img.nimages)]
        for i, node in enumerate(frontier):
            dealt[i % img.nimages].append(node)
        for target, items in enumerate(dealt):
            if target == 0:
                st.queue.extend(items)
                continue
            for start in range(0, len(items), limit):
                yield from img.spawn(
                    _push_work, target,
                    pack_items(items[start:start + limit]))

    yield from _process_loop(img, config)
    # Fig. 15 lines 13-20: steal once, then set up lifelines.
    yield from _attempt_steal(img)
    yield from _establish_lifelines(img)
    rounds = yield from img.finish_end(detector=config.detector)

    machine.scratch["uts.finish_rounds"] = rounds
    return st.nodes


def _uts_finalize(machine, rank: int) -> tuple:
    """Post-run probe of one rank, run where its machine lives (in the
    worker on the process backend): its busy seconds and its view of
    the finish round count."""
    return (float(machine.busy.busy[rank]),
            int(machine.scratch.get("uts.finish_rounds", 0)))


def run_uts(n_images: int, config: Optional[UTSConfig] = None,
            params=None, seed: int = 0, faults=None,
            racecheck: bool = False, failure_detection=None,
            backend: str = "sim") -> UTSResult:
    """Run the distributed UTS benchmark; returns measurements.

    ``failure_detection`` (see :func:`repro.runtime.program.run_spmd`)
    arms the heartbeat detector; with recovery enabled a mid-run crash
    still yields the correct total tree count — the crash demo of
    DESIGN §11.  A dead image contributes 0 to ``total_nodes`` (its
    memory died with it); recovery re-executes its lost work on
    survivors, where the re-explored nodes are counted.

    ``backend="process"`` runs the same kernel on real OS processes
    (one per image); ``sim_time`` is then the slowest worker's wall
    clock.  ``total_nodes`` is schedule-invariant, so it must equal the
    simulator's — that is the cross-validation oracle (DESIGN §14)."""
    from repro.runtime.program import run_spmd

    config = config if config is not None else UTSConfig()
    run, per_image = run_spmd(
        uts_kernel, n_images, params=params, seed=seed, args=(config,),
        faults=faults, racecheck=racecheck,
        failure_detection=failure_detection, finalize=_uts_finalize,
        backend=backend)
    extras = run.extras
    return UTSResult(
        total_nodes=sum(n for n in per_image if n is not None),
        sim_time=run.sim.now,
        nodes_per_image=per_image,
        # a worker that died reported nothing
        busy_per_image=[e[0] if e is not None else 0.0 for e in extras],
        steals_attempted=run.stats["uts.steals_attempted"],
        steals_successful=run.stats["uts.steals_successful"],
        lifeline_pushes=run.stats["uts.lifeline_pushes"],
        finish_rounds=max((e[1] for e in extras if e is not None),
                          default=0),
        retransmits=run.stats["net.retransmits"],
        drops=run.stats["net.drops"],
        dups=run.stats["net.dups"],
        races=(run.racecheck.race_count if racecheck else 0),
        failed_images=tuple(sorted(run.dead_images)),
        recovered_spawns=run.stats["spawn.recovered"],
    )
