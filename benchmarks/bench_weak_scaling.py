"""Weak-scaling benchmark: paper-size image counts in one process.

The paper's experiments run on 4096-8192 cores (§IV); the simulator has
to weak-scale to the same image counts for those studies to be
reproducible on one machine.  This bench measures the two quantities
DESIGN.md §13 optimizes:

- ``bytes_per_image`` — tracemalloc-attributed heap growth of
  constructing a ``Machine(p)``, divided by ``p``.  Sparse per-peer
  state and lazy per-image machinery keep this flat (O(1) per image)
  instead of growing with ``p`` (O(p) per image = O(p^2) total).
- ``startup_s_per_image`` — wall-clock ``Machine(p)`` construction time
  per image, which lazy materialization turns into "pay only for
  images you actually run".

It also runs the two paper applications (UTS §IV-C, RandomAccess §IV-B)
at the largest point and records determinism fingerprints, so the
regression gate notices if scaling work ever changes *what* the
simulator computes rather than just how much memory it needs.

``ra_fixed_work`` holds per-image work fixed (RandomAccess function
shipping, 256 updates per image, bunch 64) and sweeps the image count:
updates/s should not fall with p, and the cyclic collector's share of
the wall time — timed per generation through ``gc.callbacks`` — is what
made it fall (DESIGN.md §9.2, "The collector").

``tracked_per_spawn`` is what the collector walks per unit of work in
flight: the GC-tracked objects above the post-launch baseline per spawn
in flight, at the peak of a 64-image RandomAccess function-shipping run
(the ``ra_ship_sim`` e2e workload at seed 0).  It depends on the Python
version, so it is recorded and printed, never gated.

Bytes are machine-portable, so ``compare_bench.py`` gates
``bytes_per_image`` directly against the committed reference (startup
times are recorded for the record but not gated — they are wall-clock).
"""

from __future__ import annotations

import gc
import hashlib
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: footprint measurement points (always run; construction is cheap)
FOOTPRINT_POINTS = (64, 1024, 8192)
#: app weak-scale points: (quick, full)
APP_POINT_QUICK = 256
APP_POINT_FULL = 8192
#: fixed-work RandomAccess sweep: (quick, full)
RA_FIXED_POINTS_QUICK = (64, 256)
RA_FIXED_POINTS_FULL = (64, 256, 1024)
#: ROADMAP item 2's gate on the fixed-work sweep: per-update wall at the
#: top point within this factor of the 64-image one
RA_FIXED_RATIO_GATE = 1.5

#: pre-PR footprint on the reference machine (dense per-peer state,
#: eager per-image construction), recorded with the same protocol
#: before DESIGN.md §13 landed.  Kept for the table in EXPERIMENTS.md;
#: the CI gate compares against the committed BENCH_simulator.json.
PRE_PR_BYTES_PER_IMAGE = {64: 1573, 1024: 1447, 8192: 1462}
PRE_PR_STARTUP_S_PER_IMAGE = {64: 9.715e-5, 1024: 9.363e-5, 8192: 9.929e-5}


def measure_footprint(n_images: int) -> dict:
    """tracemalloc + perf_counter footprint of ``Machine(n_images)``.

    The protocol (start tracing, construct, read traced current) must
    stay byte-for-byte identical to the one that recorded the pre-PR
    baseline, or the comparison is meaningless.
    """
    from repro.runtime.program import Machine
    from repro.runtime.sizeof import deep_sizeof

    tracemalloc.start()
    t0 = time.perf_counter()
    machine = Machine(n_images, seed=1)
    startup_s = time.perf_counter() - t0
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Independent cross-check: walk the object graph hanging off the
    # machine itself (excludes allocator slack tracemalloc sees).
    deep_bytes = deep_sizeof(machine)
    return {
        "n_images": n_images,
        "bytes_per_image": current / n_images,
        "deep_bytes_per_image": deep_bytes / n_images,
        "startup_s_per_image": startup_s / n_images,
    }


def _fingerprint(*fields) -> str:
    text = "|".join(repr(f) for f in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_uts_point(n_images: int) -> dict:
    """One weak-scale UTS run; fingerprint covers the work distribution
    and simulated time, i.e. the full schedule outcome."""
    from repro.apps.uts import TreeParams, UTSConfig, run_uts

    config = UTSConfig(tree=TreeParams(b0=2.0, max_depth=4, seed=19))
    t0 = time.perf_counter()
    r = run_uts(n_images, config, seed=3)
    wall = time.perf_counter() - t0
    return {
        "n_images": n_images,
        "wall_s": wall,
        "total_nodes": r.total_nodes,
        "sim_time": r.sim_time,
        "fingerprint": _fingerprint(r.total_nodes, r.sim_time,
                                    tuple(r.nodes_per_image)),
    }


def run_ra_point(n_images: int) -> dict:
    """One weak-scale RandomAccess run; the xor checksum is itself a
    fingerprint of every update applied."""
    from repro.apps.randomaccess import RAConfig, run_randomaccess

    config = RAConfig(log2_local_table=6, updates_per_image=4)
    t0 = time.perf_counter()
    r = run_randomaccess(n_images, config)
    wall = time.perf_counter() - t0
    return {
        "n_images": n_images,
        "wall_s": wall,
        "total_updates": r.total_updates,
        "checksum": r.checksum & 0xFFFFFFFFFFFFFFFF,
        "fingerprint": _fingerprint(r.total_updates, r.checksum,
                                    r.sim_time),
    }


class CollectorTimer:
    """Counts and times the cyclic collector's passes per generation
    (``gc.callbacks``) while installed as a context manager."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            gen = info["generation"]
            self.collections[gen] += 1
            self.seconds[gen] += time.perf_counter() - self._t0

    def __enter__(self) -> "CollectorTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def run_ra_fixed_work_point(n_images: int) -> dict:
    """RandomAccess function shipping at the default per-image work (256
    updates, bunch 64): throughput and the collector's share of it."""
    from repro.apps.randomaccess import RAConfig, run_randomaccess

    gc.collect()
    with CollectorTimer() as collector:
        t0 = time.perf_counter()
        r = run_randomaccess(n_images, RAConfig())
        wall = time.perf_counter() - t0
    return {
        "n_images": n_images,
        "wall_s": wall,
        "updates_per_s": r.total_updates / wall,
        "gc_s": sum(collector.seconds),
        "gc_share": sum(collector.seconds) / wall,
        "gc_collections": collector.collections,
        "sim_time": r.sim_time,
        "checksum": r.checksum & 0xFFFFFFFFFFFFFFFF,
    }


def measure_ra_fixed_work(points=RA_FIXED_POINTS_FULL) -> dict:
    """The fixed-work sweep and its top-to-64 per-update wall ratio."""
    rows = []
    for p in points:
        row = run_ra_fixed_work_point(p)
        rows.append(row)
        print(f"  ra fixed work p={p}: {row['updates_per_s']:8.0f} updates/s, "
              f"gc {100 * row['gc_share']:4.1f} % of {row['wall_s']:.1f}s, "
              f"collections {row['gc_collections']}")
    ratio = rows[0]["updates_per_s"] / rows[-1]["updates_per_s"]
    print(f"  per-update wall p={points[-1]} / p={points[0]}: {ratio:.2f}x "
          f"(gate <= {RA_FIXED_RATIO_GATE}x)")
    return {"points": rows, "per_update_ratio": ratio,
            "ratio_gate": RA_FIXED_RATIO_GATE}


def measure_tracked_per_spawn() -> dict:
    """GC-tracked objects per spawn in flight at the peak of RandomAccess
    function shipping: 64 images, 128 updates per image, bunch 64,
    jitter 0.02, seed 0.  With the collector off, the tracked objects are
    counted right after launch and then every simulated µs; the sample
    with the most objects above that baseline is the peak, and its
    spawns in flight are those initiated but not yet executed."""
    from repro.apps.randomaccess import RAConfig, _ra_setup, ra_kernel
    from repro.net.topology import MachineParams
    from repro.runtime.program import Machine

    n_images = 64
    config = RAConfig(updates_per_image=128, bunch_size=64)
    machine = Machine(n_images, seed=0,
                      params=MachineParams.uniform(n_images, jitter=0.02))
    machine.scratch["ra.setup_config"] = config
    _ra_setup(machine)
    sim, stats = machine.sim, machine.stats
    peak = [0, 0]

    def sample() -> None:
        objects = len(gc.get_objects()) - baseline
        if objects > peak[0]:
            peak[:] = objects, (stats["spawn.initiated"]
                                - stats["spawn.executed"])
        if sim.pending_events:
            sim.schedule(1e-6, sample)

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        machine.launch(ra_kernel, args=(config,))
        baseline = len(gc.get_objects())
        sim.schedule(0.0, sample)
        machine.run()
    finally:
        if was_enabled:
            gc.enable()
    objects, in_flight = peak
    return {"objects": objects, "spawns_in_flight": in_flight,
            "per_spawn": round(objects / in_flight, 2),
            "python": "%d.%d.%d" % sys.version_info[:3]}


def measure_weak_scaling(quick: bool = False) -> dict:
    """The ``weak_scaling`` section of ``BENCH_simulator.json``."""
    points = []
    for p in FOOTPRINT_POINTS:
        fp = measure_footprint(p)
        points.append(fp)
        print(f"  footprint p={p}: {fp['bytes_per_image']:8.1f} B/img "
              f"(deep {fp['deep_bytes_per_image']:.1f}), "
              f"startup {fp['startup_s_per_image'] * 1e6:.2f} us/img")
    app_p = APP_POINT_QUICK if quick else APP_POINT_FULL
    uts = run_uts_point(app_p)
    print(f"  uts p={app_p}: wall {uts['wall_s']:.1f}s "
          f"nodes={uts['total_nodes']} fp={uts['fingerprint']}")
    ra = run_ra_point(app_p)
    print(f"  randomaccess p={app_p}: wall {ra['wall_s']:.1f}s "
          f"checksum={ra['checksum']:#x} fp={ra['fingerprint']}")
    ra_fixed = measure_ra_fixed_work(
        RA_FIXED_POINTS_QUICK if quick else RA_FIXED_POINTS_FULL)
    tracked = measure_tracked_per_spawn()
    print(f"  tracked objects per spawn in flight: {tracked['per_spawn']} "
          f"({tracked['objects']} for {tracked['spawns_in_flight']})")
    return {
        "footprint": points,
        "uts": uts,
        "randomaccess": ra,
        "ra_fixed_work": ra_fixed,
        "tracked_per_spawn": tracked,
    }


if __name__ == "__main__":
    import json

    quick = "--quick" in sys.argv
    print(json.dumps(measure_weak_scaling(quick=quick), indent=1))
