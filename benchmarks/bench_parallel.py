"""Process-backend scaling benchmark (DESIGN.md §14).

Runs UTS on the true-parallel execution backend at 1, 2 and 4 OS
processes (8 in full mode) and records wall-clock throughput per point.
The tree, seed and per-node cost are identical at every process count,
so ``total_nodes`` is fixed and ``nodes_per_s`` isolates how the *wall*
responds to adding processes — the property the simulator cannot
measure, because it has no wall.

The per-node cost is the same constant the simulated runs charge
(``UTSConfig.node_cost``), scaled up so runtime overhead does not swamp
it; on the realtime substrate it is a timer, so node processing
overlaps across workers even when the host throttles the benchmark to
one core (CI containers).  ``cpu_count`` is recorded with the section
so a flat curve on starved hardware can be read for what it is.

Beside that curve sits one CPU-bound pair, ``cpu_bound_rounds``: a
depth-8 tree at the default 2 µs node cost on 1 and 2 processes.  A
2 µs timer is due when the run loop comes back to it or, if not, once
the poll the loop then makes is over, so no node sleeps: the wall is
the interpreter's work (a SHA-1 and the queue handling per node,
~10 µs) and a second process helps only if the two really run at once.
Whether they can is measured, not assumed — ``cpu_count`` counts what a
shared container may not get — as ``cpu_scaling``: how many times
faster two processes finish twice the hashing of one.  On a shared host
the second core comes and goes within seconds, so each of three rounds
runs the pair twice, in the order 1, 2, 2, 1 processes, brackets it
with a probe before and one after (a round's closing probe opens the
next), and records its own.

``compare_bench._check_parallel`` gates the section on
*self-consistency* — largest-p throughput must beat 1-process, and in
every round whose two probes both saw two cores run at once, the
CPU-bound 2-process point must beat its 1-process one by 1.2 × — rather
than on machine-specific absolute numbers.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.uts import TreeParams, UTSConfig, run_uts  # noqa: E402
from repro.apps.uts import sequential_tree_size  # noqa: E402

#: fixed workload: ~4.8k nodes, shared 4 levels deep, 0.2 ms per node
TREE = TreeParams(b0=4.0, max_depth=6, seed=19)
NODE_COST = 2e-4
INIT_SHARING_DEPTH = 4

QUICK_POINTS = (1, 2, 4)
FULL_POINTS = (1, 2, 4, 8)

#: the CPU-bound point: ~78k nodes at the default node cost
CPU_BOUND = UTSConfig(tree=TreeParams(b0=4.0, max_depth=8, seed=19))
#: process counts of one round, in order: a drift within the round
#: weighs on both counts alike
CPU_BOUND_ORDER = (1, 2, 2, 1)

TIMER_BOUND = UTSConfig(tree=TREE, node_cost=NODE_COST,
                        init_sharing_depth=INIT_SHARING_DEPTH)


def run_point(processes: int, config: UTSConfig = TIMER_BOUND) -> dict:
    t0 = time.perf_counter()
    result = run_uts(processes, config, seed=3, backend="process")
    outer_wall = time.perf_counter() - t0
    expected = sequential_tree_size(config.tree)
    if result.total_nodes != expected:
        raise SystemExit(
            f"parallel UTS at p={processes} counted {result.total_nodes} "
            f"nodes, expected {expected} — refusing to record a broken "
            "benchmark")
    return {
        "processes": processes,
        "nodes": result.total_nodes,
        # slowest worker's in-process clock: launch overhead excluded
        "wall_s": result.sim_time,
        "outer_wall_s": outer_wall,
        "nodes_per_s": result.total_nodes / result.sim_time,
    }


def _hash_chain(links: int = 600_000) -> None:
    digest = b"uts"
    for _ in range(links):
        digest = hashlib.sha1(digest).digest()


def cpu_scaling() -> float:
    """Two processes hashing at once against one: ~2.0 on two idle
    cores, ~1.0 on one — or on two the host shares out."""
    ctx = multiprocessing.get_context("fork")
    walls = []
    for count in (1, 2):
        procs = [ctx.Process(target=_hash_chain) for _ in range(count)]
        t0 = time.perf_counter()
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        walls.append(time.perf_counter() - t0)
    return 2 * walls[0] / walls[1]


def measure_parallel(quick: bool = False) -> dict:
    points = []
    for p in (QUICK_POINTS if quick else FULL_POINTS):
        point = run_point(p)
        points.append(point)
        print(f"  parallel p={p}: {point['nodes_per_s']:,.0f} nodes/s "
              f"(wall {point['wall_s']:.2f}s)")
    speedup = points[-1]["nodes_per_s"] / points[0]["nodes_per_s"]
    print(f"  parallel speedup {points[-1]['processes']}p vs 1p: "
          f"{speedup:.2f}x on {os.cpu_count()} cores")
    rounds = []
    probe = cpu_scaling()
    for _ in range(3):
        pair = [run_point(p, CPU_BOUND) for p in CPU_BOUND_ORDER]
        probes = [probe, cpu_scaling()]
        probe = probes[1]
        rounds.append({"cpu_scaling": probes, "points": pair})
        rates = ", ".join(f"p={pt['processes']} {pt['nodes_per_s']:,.0f}"
                          for pt in pair)
        print(f"  parallel cpu-bound: {rates} nodes/s; hashing scaled "
              f"{probes[0]:.2f}x before, {probes[1]:.2f}x after")
    return {
        "cpu_count": os.cpu_count(),
        "node_cost_s": NODE_COST,
        "uts_scaling": points,
        "cpu_bound_rounds": rounds,
    }


if __name__ == "__main__":
    import json

    quick = "--quick" in sys.argv
    print(f"bench_parallel ({'quick' if quick else 'full'}):")
    print(json.dumps(measure_parallel(quick=quick), indent=1))
