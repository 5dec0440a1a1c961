"""The paper's evaluation (§IV) as one registry: :data:`EXPERIMENTS`.

Each entry states one figure, table or tooling demo once:

- ``run(**sweep)`` runs it and returns a plain results dict (it prints
  nothing);
- ``sweeps`` names its parameter sets — ``"ci"`` is the scale
  EXPERIMENTS.md records and ``benchmarks/bench_experiments.py`` checks,
  ``"quick"`` the tiny one tier-1 runs;
- ``table(results)`` holds the rows/series the paper's figure shows;
- ``check(results)`` asserts the shape that is the reproduction target —
  who wins, by what factor, where the curve bends.  A clause only the ci
  sweep reaches says so.

Problem sizes are scaled from the paper's 4K-32K-core Cray runs to
simulation scale (DESIGN.md §2).  Every run is seeded, so each table is
a pure function of the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.net.faults import FaultPlan
from repro.net.topology import MachineParams
from repro.runtime.program import Machine, run_spmd
from repro.apps.producer_consumer import PCConfig, run_producer_consumer
from repro.apps.randomaccess import RAConfig, run_randomaccess
from repro.apps.uts import (TreeParams, UTSConfig, chunk_limit, run_uts,
                            sequential_tree_size, uts_kernel)
from repro.harness.reporting import Table, format_seconds


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, named sweeps, table and shape check."""

    run: Callable[..., dict]
    sweeps: dict[str, dict]
    table: Callable[[dict], Table]
    check: Callable[[dict], None]


EXPERIMENTS: dict[str, Experiment] = {}

_NODE_COST = 5e-7


def _tree(depth: int) -> TreeParams:
    """The experiments' geometric UTS tree (77 615 nodes at depth 8)."""
    return TreeParams(b0=4, max_depth=depth, seed=19)


def _time_or_dash(t) -> str:
    return format_seconds(t) if t is not None else "-"


# --------------------------------------------------------------------- #
# Fig. 5 — why a barrier cannot detect termination
# --------------------------------------------------------------------- #

def _fig05() -> dict:
    """p ships f1 to q, f1 ships f2 to r.  With the naive barrier
    'finish', r exits before f2 lands; with the epoch detector nobody
    exits early."""
    outcomes = {}
    for detector in ("barrier", "epoch"):
        f2_done: list[float] = []

        def f2(img):
            yield from img.compute(1e-6)
            f2_done.append(img.now)

        def f1(img):
            yield from img.compute(5e-5)
            yield from img.spawn(f2, 2)

        def kernel(img, det):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(f1, 1)
            yield from img.finish_end(detector=det)
            return img.now

        _m, exits = run_spmd(kernel, 3, args=(detector,))
        outcomes[detector] = {
            "exit_of_r": exits[2],
            "f2_completed_at": f2_done[0] if f2_done else None,
            "sound": bool(f2_done) and exits[2] >= f2_done[0],
        }
    return outcomes


def _fig05_table(r: dict) -> Table:
    table = Table("Fig. 5 — barrier-based termination vs finish "
                  "(p ships f1 to q; f1 ships f2 to r)",
                  ["detector", "r exits at", "f2 completes at", "sound?"])
    for det, o in r.items():
        table.add_row([det, format_seconds(o["exit_of_r"]),
                       _time_or_dash(o["f2_completed_at"]),
                       "yes" if o["sound"] else "NO (exited early)"])
    return table


def _fig05_check(r: dict) -> None:
    assert not r["barrier"]["sound"], "the barrier let no image exit early"
    assert r["epoch"]["sound"], "finish let r exit before f2 completed"


EXPERIMENTS["fig05"] = Experiment(_fig05, {"ci": {}, "quick": {}},
                                  _fig05_table, _fig05_check)


# --------------------------------------------------------------------- #
# Fig. 12 — the cofence micro-benchmark
# --------------------------------------------------------------------- #

def _fig12(cores, iterations) -> dict:
    """copy_async completed by finish vs events vs cofence, across team
    sizes (paper: 128-1024 cores, 10^6 iterations)."""
    results: dict[str, dict[int, float]] = {
        "finish": {}, "events": {}, "cofence": {}}
    for n in cores:
        for variant, series in results.items():
            series[n] = run_producer_consumer(
                n, PCConfig(variant=variant, iterations=iterations)).sim_time
    return results


def _fig12_table(r: dict) -> Table:
    table = Table("Fig. 12 — producer-consumer micro-benchmark "
                  "(rounds of 5 x 80B copy_async)",
                  ["cores"] + [f"w/ {v}" for v in r])
    for n in r["finish"]:
        table.add_row([n] + [format_seconds(r[v][n]) for v in r])
    return table


def _fig12_check(r: dict) -> None:
    finish, events, cofence = r["finish"], r["events"], r["cofence"]
    for n in finish:
        assert cofence[n] < events[n] < finish[n], (
            f"{n} images: not cofence < events < finish")
    lo, hi = min(finish), max(finish)
    assert finish[hi] > finish[lo], "finish does not grow with team size"
    assert finish[hi] / cofence[hi] > 0.9 * finish[lo] / cofence[lo], (
        "the finish/cofence gap shrinks with team size")


EXPERIMENTS["fig12"] = Experiment(
    _fig12,
    {"ci": dict(cores=(8, 16, 32, 64), iterations=50),
     "quick": dict(cores=(4, 8), iterations=10)},
    _fig12_table, _fig12_check)


# --------------------------------------------------------------------- #
# Fig. 13 — RandomAccess scaling: get-update-put vs function shipping
# --------------------------------------------------------------------- #

def _fig13(cores, updates_per_image) -> dict:
    """Time vs cores for the reference get-update-put variant and for
    function shipping with 2, 4 and 8 finish blocks per image (the
    paper groups 2048/1024/512 updates per finish over a 2^22-word
    table; ours has 2^10 words per image)."""
    results: dict[str, dict[int, float]] = {"get-update-put": {}}
    for n in cores:
        results["get-update-put"][n] = run_randomaccess(n, RAConfig(
            variant="get-update-put", updates_per_image=updates_per_image,
            log2_local_table=10)).sim_time
        for g in (2, 4, 8):
            results.setdefault(f"FS w/ {g} finish/img", {})[n] = (
                run_randomaccess(n, RAConfig(
                    variant="function-shipping",
                    updates_per_image=updates_per_image,
                    log2_local_table=10,
                    bunch_size=max(1, updates_per_image // g))).sim_time)
    return results


def _fig13_table(r: dict) -> Table:
    table = Table("Fig. 13 — RandomAccess, get-update-put vs function "
                  "shipping (2^10 words/image)", ["cores"] + list(r))
    for n in r["get-update-put"]:
        table.add_row([n] + [format_seconds(r[v][n]) for v in r])
    return table


def _fig13_check(r: dict) -> None:
    ref = r["get-update-put"]
    fs = [series for name, series in r.items() if name.startswith("FS")]
    # Both clauses need the ci sweep's teams of 8 images and up.
    for n in ref:
        if n >= 8:
            for series in fs:
                assert ref[n] / 8 < series[n] < 4 * ref[n], (
                    f"{n} images: FS not comparable to get-update-put")
        if n >= 16:
            times = [series[n] for series in fs]
            assert max(times) / min(times) < 4, (
                f"{n} images: the finish count changes FS time 4x")


EXPERIMENTS["fig13"] = Experiment(
    _fig13,
    {"ci": dict(cores=(2, 4, 8, 16, 32), updates_per_image=128),
     "quick": dict(cores=(2, 4), updates_per_image=32)},
    _fig13_table, _fig13_check)


# --------------------------------------------------------------------- #
# Fig. 14 — RandomAccess bunch-size sweep (flow-control anomaly)
# --------------------------------------------------------------------- #

def _fig14(cores, bunch_sizes, updates_per_image) -> dict:
    """Function-shipping RandomAccess across bunch sizes, with
    GASNet-style source-token flow control (8 credits) and without.
    With it, time falls steeply as bunches grow (finish amortizes),
    flattens, and rises again once bunches outlive the credit pool and
    the sender sits in ever-longer retry runs — the paper's anomaly
    beyond bunch size 256.  Without it the rise disappears."""
    results: dict[str, dict] = {}
    for label, credits in (("flow control", 8), ("no flow control", None)):
        by_cores = results[label] = {}
        for n in cores:
            params = MachineParams.uniform(
                n, flow_credits=credits, ack_latency_factor=2.0)
            by_cores[n] = {
                bunch: run_randomaccess(n, RAConfig(
                    variant="function-shipping",
                    updates_per_image=updates_per_image,
                    log2_local_table=10, bunch_size=bunch),
                    params=params).sim_time
                for bunch in bunch_sizes}
    return results


def _fig14_table(r: dict) -> Table:
    series = ([(f"{n} cores", t) for n, t in r["flow control"].items()]
              + [(f"{n} cores, no flow control", t)
                 for n, t in r["no flow control"].items()])
    table = Table("Fig. 14 — RandomAccess FS vs bunch size "
                  "(source-scoped flow credits = 8)",
                  ["bunch size"] + [name for name, _ in series])
    for bunch in series[0][1]:
        table.add_row([bunch] + [format_seconds(times[bunch])
                                 for _, times in series])
    return table


def _fig14_check(r: dict) -> None:
    for n, times in r["flow control"].items():
        sweet, last = min(times.values()), times[max(times)]
        assert times[4] > 2 * times[64], f"{n} cores: no steep fall"
        assert sweet <= last <= 1.5 * sweet, (
            f"{n} cores: the largest bunch is far off the sweet spot")
        if max(times) >= 256:  # the ci sweep reaches the paper's anomaly
            assert last > sweet, f"{n} cores: no rise past the sweet spot"
    for n, times in r["no flow control"].items():
        curve = [times[b] for b in sorted(times)]
        assert all(b <= a * 1.02 for a, b in zip(curve, curve[1:])), (
            f"{n} cores: without flow control the curve still rises")


EXPERIMENTS["fig14"] = Experiment(
    _fig14,
    {"ci": dict(cores=(8, 32), bunch_sizes=(4, 8, 16, 32, 64, 128, 256),
                updates_per_image=256),
     "quick": dict(cores=(4,), bunch_sizes=(4, 16, 64),
                   updates_per_image=64)},
    _fig14_table, _fig14_check)


# --------------------------------------------------------------------- #
# Fig. 16 — UTS load balance
# --------------------------------------------------------------------- #

def _fig16(cores, tree) -> dict:
    """Relative per-image work fraction (paper: 0.989-1.008x at 2048
    cores widening to 0.980-1.037x at 8192)."""
    results = {}
    for n in cores:
        r = run_uts(n, UTSConfig(tree=tree, node_cost=_NODE_COST))
        fractions = np.array(r.nodes_per_image) / (r.total_nodes / n)
        results[n] = {"min": float(fractions.min()),
                      "max": float(fractions.max())}
    return results


def _fig16_table(r: dict) -> Table:
    table = Table("Fig. 16 — UTS load balance (relative fraction of work)",
                  ["cores", "min", "max", "spread"])
    for n, row in r.items():
        lo, hi = row["min"], row["max"]
        table.add_row([n, f"{lo:.3f}", f"{hi:.3f}", f"{hi - lo:.3f}"])
    return table


def _fig16_check(r: dict) -> None:
    for n, row in r.items():
        assert 0.9 < row["min"] <= 1.0 <= row["max"] < 1.1, (
            f"{n} images: work fractions outside a 10 % band")
    spread = [row["max"] - row["min"] for row in r.values()]
    assert spread[0] < spread[-1], "the spread does not widen with p"


EXPERIMENTS["fig16"] = Experiment(
    _fig16,
    {"ci": dict(cores=(8, 16, 32), tree=_tree(8)),
     "quick": dict(cores=(4, 8), tree=_tree(6))},
    _fig16_table, _fig16_check)


# --------------------------------------------------------------------- #
# Fig. 17 — UTS parallel efficiency
# --------------------------------------------------------------------- #

def _fig17(cores, tree) -> dict:
    """Parallel efficiency T1 / (p * Tp) (paper: 0.74-0.80 from 256 to
    32K cores)."""
    t1 = sequential_tree_size(tree) * _NODE_COST
    return {n: t1 / (n * run_uts(n, UTSConfig(
        tree=tree, node_cost=_NODE_COST)).sim_time) for n in cores}


def _fig17_table(r: dict) -> Table:
    table = Table("Fig. 17 — UTS parallel efficiency T1 / (p Tp)",
                  ["cores", "efficiency"])
    for n, eff in r.items():
        table.add_row([n, f"{eff:.2f}"])
    return table


def _fig17_check(r: dict) -> None:
    effs = list(r.values())
    assert all(0 < eff <= 1.001 for eff in effs), "efficiency out of (0, 1]"
    assert all(b <= a * 1.02 for a, b in zip(effs, effs[1:])), (
        "efficiency does not decline monotonically")
    if 64 in r:  # the ci sweep: 2 to 64 images over the 77 615-node tree
        assert r[2] > 0.95, "2 images: not near-ideal"
        assert 0.70 <= r[64] <= 0.90, "64 images: outside the paper's band"


EXPERIMENTS["fig17"] = Experiment(
    _fig17,
    {"ci": dict(cores=(2, 4, 8, 16, 32, 64), tree=_tree(8)),
     "quick": dict(cores=(2, 4), tree=_tree(6))},
    _fig17_table, _fig17_check)


# --------------------------------------------------------------------- #
# Fig. 18 — allreduce rounds of termination detection
# --------------------------------------------------------------------- #

def _fig18(cores, tree) -> dict:
    """Rounds of allreduce the paper's detector uses in UTS vs the
    baselines without the wait precondition (paper: ours is ~50 % of
    its baseline).  ``wave_drain`` keeps the inbox-drain half of the
    precondition, ``wave_unbounded`` keeps none; the paper's measurement
    falls between them — see EXPERIMENTS.md."""
    results: dict[str, dict[int, int]] = {
        "epoch": {}, "wave_drain": {}, "wave_unbounded": {}}
    for n in cores:
        for det, series in results.items():
            series[n] = run_uts(n, UTSConfig(
                tree=tree, node_cost=_NODE_COST, detector=det)).finish_rounds
    return results


def _fig18_table(r: dict) -> Table:
    table = Table("Fig. 18 — rounds of termination detection in UTS",
                  ["cores", "our algorithm", "w/o delivery wait",
                   "w/o any wait"])
    for n in r["epoch"]:
        table.add_row([n] + [r[det][n] for det in r])
    return table


def _fig18_check(r: dict) -> None:
    ours, drain, free = r["epoch"], r["wave_drain"], r["wave_unbounded"]
    for n in ours:
        assert ours[n] <= drain[n] < free[n], (
            f"{n} images: not ours <= drain-only < free-spinning")
    ratios = [free[n] / ours[n] for n in ours]
    assert ratios[-1] < ratios[0], "the free-spinning ratio does not fall"
    assert ratios[-1] >= 1.5, "the free-spinning baseline is not ~2x"


EXPERIMENTS["fig18"] = Experiment(
    _fig18,
    {"ci": dict(cores=(8, 16, 32, 64), tree=_tree(8)),
     "quick": dict(cores=(4, 8), tree=_tree(6))},
    _fig18_table, _fig18_check)


# --------------------------------------------------------------------- #
# Theorem 1 — wave bound
# --------------------------------------------------------------------- #

def _theorem1(chain_lengths, n_images) -> dict:
    """Measured allreduce waves vs the L+1 bound of Theorem 1, with a
    spawn chain slow enough that every hop straddles a wave."""

    def hop(img, remaining):
        yield from img.compute(5e-5)
        if remaining > 1:
            yield from img.spawn(hop, (img.team_rank() + 1) % img.nimages,
                                 remaining - 1)

    def kernel(img, length):
        yield from img.finish_begin()
        if img.rank == 0 and length > 0:
            yield from img.spawn(hop, 1, length)
        return (yield from img.finish_end())

    results = {}
    for length in chain_lengths:
        _m, rounds = run_spmd(kernel, n_images, args=(length,))
        results[length] = {"waves": rounds[0], "bound": length + 1}
    return results


def _theorem1_table(r: dict) -> Table:
    table = Table("Theorem 1 — reduction waves vs the L+1 bound",
                  ["chain length L", "waves used", "bound L+1"])
    for length, row in r.items():
        table.add_row([length, row["waves"], row["bound"]])
    return table


def _theorem1_check(r: dict) -> None:
    for length, row in r.items():
        assert row["waves"] <= row["bound"], f"L={length}: bound exceeded"
    longest = r[max(r)]
    assert longest["waves"] == longest["bound"], "the bound is not reached"


EXPERIMENTS["theorem1"] = Experiment(
    _theorem1,
    {"ci": dict(chain_lengths=(1, 2, 4, 8), n_images=8),
     "quick": dict(chain_lengths=(1, 2), n_images=4)},
    _theorem1_table, _theorem1_check)


# --------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------- #

def _detectors(n_images, tree) -> dict:
    """All five sound detectors on the same UTS run: rounds/reports,
    time, and the centralized scheme's owner traffic (§V)."""
    results = {}
    for det in ("epoch", "wave_drain", "wave_unbounded", "four_counter",
                "vector_count"):
        machine, per_image = run_spmd(uts_kernel, n_images, args=(
            UTSConfig(tree=tree, node_cost=_NODE_COST, detector=det),))
        results[det] = {
            "rounds": machine.scratch["uts.finish_rounds"],
            "sim_time": machine.sim.now,
            "owner_bytes": machine.stats["term.vector.owner_bytes"],
            "total_nodes": sum(per_image),
        }
    return results


def _detectors_table(r: dict) -> Table:
    table = Table("Ablation — termination detectors on UTS",
                  ["detector", "rounds/reports", "time", "owner bytes"])
    for det, row in r.items():
        table.add_row([det, row["rounds"], format_seconds(row["sim_time"]),
                       row["owner_bytes"]])
    return table


def _detectors_check(r: dict) -> None:
    assert len({row["total_nodes"] for row in r.values()}) == 1, (
        "the detectors counted different trees")
    assert r["epoch"]["rounds"] < r["wave_unbounded"]["rounds"], (
        "the wait precondition saves no waves")
    assert [det for det, row in r.items() if row["owner_bytes"]] == [
        "vector_count"], "owner traffic is not the centralized scheme's"


EXPERIMENTS["detectors"] = Experiment(
    _detectors,
    {"ci": dict(n_images=8, tree=_tree(7)),
     "quick": dict(n_images=4, tree=_tree(6))},
    _detectors_table, _detectors_check)


def _radix(radixes, n_images, repeats) -> dict:
    """Radix of finish's reduction tree: deeper (radix-2) trees cost
    more latency per wave; wider trees serialize at the parent."""

    def kernel(img, radix):
        img.machine.scratch["finish.allreduce_radix"] = radix
        for _ in range(repeats):
            yield from img.finish_begin()
            yield from img.finish_end()
        return img.now

    return {radix: max(run_spmd(kernel, n_images, args=(radix,))[1])
            / repeats for radix in radixes}


def _radix_table(r: dict) -> Table:
    table = Table("Ablation — finish allreduce tree radix (mean time of "
                  "an empty finish block)", ["radix", "time per finish"])
    for radix, t in r.items():
        table.add_row([radix, format_seconds(t)])
    return table


def _radix_check(r: dict) -> None:
    assert r[max(r)] < r[min(r)], "the widest tree is not the cheapest"
    best = min(r.values())
    assert all(t < 4 * best for t in r.values()), "a radix costs 4x best"


EXPERIMENTS["radix"] = Experiment(
    _radix,
    {"ci": dict(radixes=(2, 4, 8), n_images=32, repeats=20),
     "quick": dict(radixes=(2, 4), n_images=8, repeats=3)},
    _radix_table, _radix_check)


def _steal_chunk(medium_sizes, n_images, tree) -> dict:
    """§IV-C.1a "amount to steal": the AM medium payload cap bounds the
    steal chunk; tiny chunks make stealing unprofitable, oversized ones
    destabilize victims."""
    results = {}
    for cap in medium_sizes:
        params = MachineParams.uniform(n_images, am_medium_max=cap)
        r = run_uts(n_images, UTSConfig(tree=tree, node_cost=_NODE_COST),
                    params=params)
        results[cap] = {"chunk": chunk_limit(Machine(n_images, params=params)),
                        "sim_time": r.sim_time,
                        "steals": r.steals_attempted}
    return results


def _steal_chunk_table(r: dict) -> Table:
    table = Table("Ablation — steal chunk size (AM medium payload cap)",
                  ["am_medium_max", "items/steal", "time", "steal attempts"])
    for cap, row in r.items():
        table.add_row([cap, row["chunk"], format_seconds(row["sim_time"]),
                       row["steals"]])
    return table


def _steal_chunk_check(r: dict) -> None:
    chunks = [row["chunk"] for row in r.values()]
    assert chunks == sorted(set(chunks)), "chunks do not grow with the cap"
    assert r[256]["chunk"] == 9, "the default cap is not the paper's 9 items"
    if max(r) > 256:  # the ci sweep's oversized cap
        assert r[max(r)]["steals"] > r[256]["steals"], (
            "oversized chunks do not raise the steal traffic")


EXPERIMENTS["steal_chunk"] = Experiment(
    _steal_chunk,
    {"ci": dict(medium_sizes=(80, 256, 800), n_images=16, tree=_tree(8)),
     "quick": dict(medium_sizes=(80, 256), n_images=4, tree=_tree(6))},
    _steal_chunk_table, _steal_chunk_check)


def _allreduce_algorithm(sizes, n_images) -> dict:
    """Latency-optimal tree vs bandwidth-optimal ring allreduce across
    payload sizes: finish's scalar reductions want the tree, bulk array
    reductions (the collectives "vision" of §II-C.3) the ring."""
    params = MachineParams.uniform(n_images, wire_latency=1e-6,
                                   bandwidth=1e9, o_send=1e-7, o_recv=1e-7)

    def kernel(img, size, ring):
        arr = np.ones(size, dtype=np.float64)
        if ring:
            yield from img.ring_allreduce(arr)
        else:
            yield from img.allreduce(arr)
        return img.now

    return {size: {algo: max(run_spmd(kernel, n_images, params=params,
                                      args=(size, algo == "ring"))[1])
                   for algo in ("tree", "ring")}
            for size in sizes}


def _allreduce_algorithm_table(r: dict) -> Table:
    table = Table("Ablation — allreduce algorithm vs payload "
                  "(1 us wire, 1 GB/s)",
                  ["elements", "tree (latency-opt)", "ring (bandwidth-opt)",
                   "winner"])
    for size, t in r.items():
        table.add_row([size, format_seconds(t["tree"]),
                       format_seconds(t["ring"]),
                       "tree" if t["tree"] < t["ring"] else "ring"])
    return table


def _allreduce_algorithm_check(r: dict) -> None:
    small, large = r[min(r)], r[max(r)]
    assert small["tree"] < small["ring"], "the tree loses small payloads"
    assert large["ring"] < large["tree"], "the ring loses large payloads"


EXPERIMENTS["allreduce_algorithm"] = Experiment(
    _allreduce_algorithm,
    {"ci": dict(sizes=(8, 512, 8192, 131072), n_images=8),
     "quick": dict(sizes=(8, 131072), n_images=4)},
    _allreduce_algorithm_table, _allreduce_algorithm_check)


# --------------------------------------------------------------------- #
# Chaos — the paper apps on an unreliable network (DESIGN §7)
# --------------------------------------------------------------------- #

def _chaos(drop_rates, n_images, tree, updates_per_image) -> dict:
    """UTS and RandomAccess on an unreliable network with the reliable
    transport: application results must match the clean-network run at
    every drop rate, with the retransmission traffic as the price."""
    expected_nodes = sequential_tree_size(tree)
    params = MachineParams.uniform(n_images, reliable=True)
    results = {}
    for rate in drop_rates:
        def faults():
            return (FaultPlan(drop=rate, duplicate=rate / 2, seed=0)
                    if rate > 0 else None)

        uts = run_uts(n_images, UTSConfig(tree=tree, node_cost=_NODE_COST),
                      params=params, faults=faults())
        ra = run_randomaccess(
            n_images, RAConfig(log2_local_table=8,
                               updates_per_image=updates_per_image),
            params=params, verify=True, faults=faults())
        results[rate] = {
            "uts_ok": uts.total_nodes == expected_nodes,
            "uts_time": uts.sim_time,
            "uts_retransmits": uts.retransmits,
            "ra_ok": ra.errors == 0,
            "ra_time": ra.sim_time,
            "ra_retransmits": ra.retransmits,
            "drops": uts.drops + ra.drops,
            "dups": uts.dups + ra.dups,
        }
    return results


def _chaos_table(r: dict) -> Table:
    table = Table("Chaos — UTS + RandomAccess under injected faults "
                  "(reliable transport)",
                  ["drop rate", "UTS ok", "RA ok", "retransmits", "drops",
                   "dups", "UTS time", "RA time"])
    for rate, row in r.items():
        table.add_row([
            rate, "yes" if row["uts_ok"] else "NO",
            "yes" if row["ra_ok"] else "NO",
            row["uts_retransmits"] + row["ra_retransmits"], row["drops"],
            row["dups"], format_seconds(row["uts_time"]),
            format_seconds(row["ra_time"])])
    return table


def _chaos_check(r: dict) -> None:
    for rate, row in r.items():
        assert row["uts_ok"] and row["ra_ok"], (
            f"drop rate {rate}: an app result diverged from the clean run")
        retransmits = row["uts_retransmits"] + row["ra_retransmits"]
        if rate == 0:
            assert retransmits == row["drops"] == 0, "a clean run resent"
        else:
            assert row["uts_retransmits"] > 0 and row["ra_retransmits"] > 0, (
                f"drop rate {rate}: an app healed no loss by resending")
            assert row["drops"] > 0, f"drop rate {rate}: nothing dropped"
            assert retransmits >= row["drops"] - row["dups"], (
                f"drop rate {rate}: fewer resends than unhealed drops")
    rows = list(r.values())
    for key in ("uts_time", "ra_time"):
        assert all(a[key] < b[key] for a, b in zip(rows, rows[1:])), (
            f"{key} does not grow with the drop rate")
    lossy = [row["uts_retransmits"] + row["ra_retransmits"]
             for rate, row in r.items() if rate > 0]
    assert lossy == sorted(set(lossy)), "resends do not grow with drops"


EXPERIMENTS["chaos"] = Experiment(
    _chaos,
    {"ci": dict(drop_rates=(0.0, 0.02, 0.05, 0.1), n_images=8,
                tree=_tree(7), updates_per_image=64),
     "quick": dict(drop_rates=(0.0, 0.05), n_images=4, tree=_tree(6),
                   updates_per_image=16)},
    _chaos_table, _chaos_check)


# --------------------------------------------------------------------- #
# Crash — fail-stop image failure, detection, and recovery (DESIGN §11)
# --------------------------------------------------------------------- #

_CRASH_IMAGE, _CRASH_TIME = 2, 1e-5


def _crash(n_images, tree) -> dict:
    """UTS with image 2 fail-stopping mid initial-work-sharing.  Three
    runs: clean (the reference count), crash with recovery (must
    reproduce the exact sequential tree size — the lost shipped
    functions re-execute on their surviving spawners), and crash in
    report-only mode (must raise a structured ImageFailureError naming
    the dead image instead of hanging)."""
    from repro.runtime.failure import FailureConfig, ImageFailureError

    config = UTSConfig(tree=tree)
    clean = run_uts(n_images, config, seed=42)
    recovered = run_uts(
        n_images, config, seed=42,
        faults=FaultPlan().crash_at(_CRASH_IMAGE, _CRASH_TIME),
        failure_detection=FailureConfig(recover=True))
    report = None
    try:
        run_uts(n_images, config, seed=42,
                faults=FaultPlan().crash_at(_CRASH_IMAGE, _CRASH_TIME),
                failure_detection=FailureConfig())
    except ImageFailureError as exc:
        report = exc
    return {
        "expected_nodes": sequential_tree_size(tree),
        "clean_nodes": clean.total_nodes,
        "clean_time": clean.sim_time,
        "recovered_nodes": recovered.total_nodes,
        "failed_images": list(recovered.failed_images),
        "recovered_spawns": recovered.recovered_spawns,
        "recovered_time": recovered.sim_time,
        "report_dead": list(report.dead) if report else None,
        "report_detected_at": report.detected_at if report else None,
    }


def _crash_table(r: dict) -> Table:
    table = Table(f"Crash — UTS with image {_CRASH_IMAGE} fail-stopping at "
                  f"t={_CRASH_TIME:g}s",
                  ["mode", "nodes", "correct", "dead", "re-executed",
                   "time"])
    expected = r["expected_nodes"]
    table.add_row(["clean", r["clean_nodes"],
                   "yes" if r["clean_nodes"] == expected else "NO", "-", 0,
                   format_seconds(r["clean_time"])])
    table.add_row(["crash + recover", r["recovered_nodes"],
                   "yes" if r["recovered_nodes"] == expected else "NO",
                   r["failed_images"], r["recovered_spawns"],
                   format_seconds(r["recovered_time"])])
    if r["report_dead"] is not None:
        table.add_row(["crash, report-only", "ImageFailureError", "yes",
                       r["report_dead"], 0,
                       format_seconds(r["report_detected_at"])])
    else:
        table.add_row(["crash, report-only", "NO ERROR RAISED", "NO", "-",
                       0, "-"])
    return table


def _crash_check(r: dict) -> None:
    expected = r["expected_nodes"]
    assert r["clean_nodes"] == expected, "the clean UTS run lost nodes"
    assert r["recovered_nodes"] == expected, (
        f"recovery counted {r['recovered_nodes']} of {expected} nodes "
        f"(dead={r['failed_images']})")
    assert r["report_dead"] is not None, (
        "the report-only crash run finished without ImageFailureError")
    assert _CRASH_IMAGE in r["report_dead"], (
        f"ImageFailureError names {r['report_dead']}, not the dead image")


EXPERIMENTS["crash"] = Experiment(
    _crash,
    {"ci": dict(n_images=4, tree=_tree(8)),
     "quick": dict(n_images=4, tree=_tree(6))},
    _crash_table, _crash_check)


# --------------------------------------------------------------------- #
# Gray failures — phi-accrual vs fixed-timeout detection (DESIGN §12)
# --------------------------------------------------------------------- #

_GRAYFAIL = dict(period=2e-5, timeout=5e-5, confirm_timeout=1e-3)
_STRAGGLE = 12.0


def _grayfail(n_images, slices) -> dict:
    """Detector quality under gray failures: the adaptive phi-accrual
    rule against the fixed timeout, on the same chaos — a sliced-compute
    kernel whose only traffic is the heartbeat stream.

    - *straggler*: image 1 degrades to 12x service time, stretching its
      heartbeat cadence past the suspicion timeout.  The fixed rule flaps
      (one false suspicion per slow gap); phi adapts once the slow
      inter-arrivals enter its window.
    - *crash*: the same straggler, and another image fail-stops.  Both
      rules must notice at the same latency.
    - *partition*: both halves go silent for less than
      ``confirm_timeout``.  Neither rule can see through a severed link,
      so both flap equally; the time-based confirmation floor must hold —
      zero confirmations, every suspicion retracted on heal."""
    from repro.runtime.failure import FailureConfig

    def kernel(img):
        for _ in range(slices):
            yield from img.compute(2e-5)

    def measure(detector: str, plan: FaultPlan) -> dict:
        machine, _ = run_spmd(
            kernel, n_images, faults=plan,
            failure_detection=FailureConfig(detector=detector, **_GRAYFAIL))
        service = machine.failure
        tts = service.time_to_unsuspect
        return {
            "false_suspicions": machine.stats["fail.false_suspected"],
            "unsuspected": machine.stats["fail.unsuspected"],
            "confirmed": machine.stats["fail.confirmed"],
            "suspect_latency": (service.suspect_latency[0]
                                if service.suspect_latency else None),
            "mean_time_to_unsuspect": sum(tts) / len(tts) if tts else None,
        }

    half = n_images // 2
    return {det: {
        "straggler": measure(det, FaultPlan().straggle(
            1, _STRAGGLE, degrade_at=2e-4)),
        "crash": measure(det, FaultPlan()
                         .straggle(1, _STRAGGLE, degrade_at=2e-4)
                         .crash_at(n_images - 1, 8e-4)),
        "partition": measure(det, FaultPlan().partition(
            [list(range(half)), list(range(half, n_images))],
            at=4e-4, heal_at=7e-4)),
    } for det in ("timeout", "phi")}


def _grayfail_table(r: dict) -> Table:
    table = Table(f"Gray failures — phi-accrual vs fixed timeout "
                  f"(straggler x{_STRAGGLE:g}, healing partition)",
                  ["detector", "scenario", "false suspicions", "unsuspected",
                   "confirmed", "crash latency", "mean heal time"])
    for det, scenarios in r.items():
        for scenario, row in scenarios.items():
            table.add_row([det, scenario, row["false_suspicions"],
                           row["unsuspected"], row["confirmed"],
                           _time_or_dash(row["suspect_latency"]),
                           _time_or_dash(row["mean_time_to_unsuspect"])])
    return table


def _grayfail_check(r: dict) -> None:
    t, p = r["timeout"], r["phi"]
    assert (p["straggler"]["false_suspicions"]
            < t["straggler"]["false_suspicions"]), (
        "phi does not suspect the straggler less than the fixed timeout")
    latencies = [t["crash"]["suspect_latency"], p["crash"]["suspect_latency"]]
    assert None not in latencies, "a detector missed the real crash"
    assert abs(latencies[0] - latencies[1]) <= 2 * _GRAYFAIL["period"], (
        f"crash-detection latencies differ: {latencies}")
    for det, scenarios in r.items():
        for scenario in ("straggler", "partition"):
            assert scenarios[scenario]["confirmed"] == 0, (
                f"{det} confirmed a live image under the {scenario}")


EXPERIMENTS["grayfail"] = Experiment(
    _grayfail,
    {"ci": dict(n_images=6, slices=100),
     "quick": dict(n_images=4, slices=60)},
    _grayfail_table, _grayfail_check)


# --------------------------------------------------------------------- #
# Schedule exploration — the seeded ordering bug (DESIGN §10)
# --------------------------------------------------------------------- #

def _explore(budget, rounds, minimize_budget) -> dict:
    """Every strategy must find the seeded flag-before-data bug in
    :mod:`repro.apps.ordering_bug` within ``budget`` schedules, the
    minimized schedule must shrink to a handful of non-default choices,
    and its strict replay must reproduce the identical failure.  The
    baseline schedule always delivers data before the flag, so only
    controlled-schedule search surfaces the bug."""
    from repro.apps.ordering_bug import (OrderingBugConfig,
                                         make_ordering_bug_target,
                                         run_ordering_bug)
    from repro.explore import (DFSStrategy, Explorer, PCTStrategy,
                               RandomWalkStrategy, check_replay_determinism)

    config = OrderingBugConfig(rounds=rounds)
    target = make_ordering_bug_target(config=config)
    explorer = Explorer(target, budget=budget,
                        minimize_budget=minimize_budget)
    results: dict = {"baseline_ok": run_ordering_bug(config=config).ok,
                     "strategies": {}}
    for strategy in (RandomWalkStrategy(seed=1), PCTStrategy(seed=2),
                     DFSStrategy(max_depth=25)):
        report = explorer.run_strategy(strategy)
        row = report.to_json()
        row["replay_deterministic"] = report.found and (
            check_replay_determinism(target, report.minimized))
        results["strategies"][report.strategy] = row
    return results


def _explore_table(r: dict) -> Table:
    table = Table("Schedule exploration — seeded ordering bug (baseline "
                  f"schedule {'clean' if r['baseline_ok'] else 'FAILED'})",
                  ["strategy", "found", "schedules",
                   "minimized (non-default)", "replay"])
    for name, row in r["strategies"].items():
        found = row["found"]
        table.add_row([
            name, f"run #{row['found_at']}" if found else "NO",
            row["schedules_run"],
            (f"{row['minimized_nonzero']} of {row['minimized_len']}"
             if found else "-"),
            ("identical" if row["replay_deterministic"] else "DIVERGED")
            if found else "-"])
    return table


def _explore_check(r: dict) -> None:
    assert r["baseline_ok"], "the baseline schedule already fails"
    for name, row in r["strategies"].items():
        assert row["found"], f"{name} did not find the bug within budget"
        assert row["outcome"]["kind"] == "invariant", (
            f"{name} found a {row['outcome']['kind']} failure")
        assert row["minimized_nonzero"] <= 3, f"{name}: minimization stalled"
        assert row["replay_deterministic"], f"{name}: replay diverged"


EXPERIMENTS["explore"] = Experiment(
    _explore,
    {"ci": dict(budget=500, rounds=4, minimize_budget=200),
     "quick": dict(budget=150, rounds=2, minimize_budget=60)},
    _explore_table, _explore_check)


# --------------------------------------------------------------------- #
# Fuzzing service — coverage-guided search vs blind random walk (§15)
# --------------------------------------------------------------------- #

def _fuzz(rw_budget, fuzz_budget, seeds) -> dict:
    """The coverage-guided service (inline, deterministic per seed) must
    find both seeded bugs — the ordering bug and the crash-recovery
    double-count — with an order of magnitude fewer schedules than a
    random walk given the same seeds and search space (lag_steps=4).

    The recovery bug is the stress case: its failing conjunction (the
    one non-decoy crash time *and* every completion post lagged past it)
    is staged, each partial step visible to the coverage map long before
    the invariant trips.  Random walk has to roll the whole conjunction
    at once; the corpus climbs it.  A random walk that never finds is
    charged its budget."""
    from repro.apps.ordering_bug import make_ordering_bug_target
    from repro.apps.recovery_bug import make_recovery_bug_target
    from repro.explore import Explorer, RandomWalkStrategy
    from repro.explore.fuzz import FuzzConfig, FuzzService

    lag_steps = 4
    results: dict = {"targets": {}}
    for name, make_target in (("ordering_bug", make_ordering_bug_target),
                              ("recovery_bug", make_recovery_bug_target)):
        target = make_target()
        rows = results["targets"][name] = []
        for seed in seeds:
            rw = Explorer(target, budget=rw_budget, minimize=False
                          ).run_strategy(RandomWalkStrategy(
                              seed=seed, lag_steps=lag_steps))
            report = FuzzService(target, FuzzConfig(
                budget=fuzz_budget, seed=seed,
                lag_steps=lag_steps, max_findings=1)).run()
            rows.append({
                "seed": seed,
                "rw_found": rw.found,
                "rw_spent": rw.found_at + 1 if rw.found else rw_budget,
                "fuzz_found": report.found,
                "fuzz_spent": (report.first_find_at if report.found
                               else fuzz_budget),
                "fuzz_verified": all(f.verified for f in report.findings),
            })
    every = [row for rows in results["targets"].values() for row in rows]
    results["total_rw"] = sum(row["rw_spent"] for row in every)
    results["total_fuzz"] = sum(row["fuzz_spent"] for row in every)
    return results


def _fuzz_table(r: dict) -> Table:
    table = Table("Chaos fuzzing — schedules to first finding, random walk "
                  "vs coverage-guided (lag_steps=4)",
                  ["target", "seed", "random walk", "fuzz service",
                   "ratio"])
    for name, rows in r["targets"].items():
        for row in rows:
            table.add_row([
                name, row["seed"],
                ("" if row["rw_found"] else ">") + str(row["rw_spent"]),
                ("" if row["fuzz_found"] else ">") + str(row["fuzz_spent"]),
                f"{row['rw_spent'] / max(1, row['fuzz_spent']):.1f}x"])
    table.add_row(["total", "", r["total_rw"], r["total_fuzz"],
                   f"{r['total_rw'] / max(1, r['total_fuzz']):.1f}x"])
    return table


def _fuzz_check(r: dict) -> None:
    for name, rows in r["targets"].items():
        for row in rows:
            assert row["fuzz_found"] and row["fuzz_verified"], (
                f"{name} seed {row['seed']}: no verified finding")


EXPERIMENTS["fuzz"] = Experiment(
    _fuzz,
    {"ci": dict(rw_budget=6000, fuzz_budget=1500, seeds=(0, 1, 2, 3)),
     "quick": dict(rw_budget=1500, fuzz_budget=400, seeds=(0,))},
    _fuzz_table, _fuzz_check)


# --------------------------------------------------------------------- #
# Race audit — the happens-before detector over the paper apps (§8)
# --------------------------------------------------------------------- #

def _racy_producer(img, iterations: int):
    """The Fig. 11 producer with its cofence removed — the audit's
    positive control: the buffer is overwritten while copies may still
    be reading it, and the detector must say so."""
    src = np.zeros(16, dtype=np.uint8)
    inbuf = img.machine.coarray_by_name("races_inbuf")
    yield from img.finish_begin()
    if img.rank == 0:
        for _ in range(iterations):
            img.copy_async(inbuf.ref(1), src)
            img.local_write(src, (src + 1) % 7)  # missing cofence
    yield from img.finish_end()


def _races(n_images, tree, iterations, updates_per_image) -> dict:
    """The three paper applications under their own synchronization
    must be race-free, and the producer without its cofence must be
    flagged with a hint that names the missing cofence.  ``n_images``
    must be a power of two (RandomAccess's constraint)."""
    uts = run_uts(n_images, UTSConfig(tree=tree), racecheck=True)
    ra = run_randomaccess(
        n_images, RAConfig(log2_local_table=8,
                           updates_per_image=updates_per_image),
        verify=True, racecheck=True)
    pc = run_producer_consumer(n_images, PCConfig(iterations=iterations),
                               racecheck=True)
    machine, _ = run_spmd(
        _racy_producer, 2, args=(iterations,), racecheck=True,
        setup=lambda m: m.coarray("races_inbuf", shape=16, dtype=np.uint8))
    control = machine.racecheck
    return {"uts": uts.races, "randomaccess": ra.races,
            "ra_errors": ra.errors, "producer_consumer": pc.races,
            "control": control.race_count,
            "control_hint": control.races[0].hint if control.races else ""}


def _races_table(r: dict) -> Table:
    table = Table("Race audit — vector-clock happens-before detector",
                  ["program", "sync discipline", "races", "verdict"])
    for program, key, sync in (
            ("UTS", "uts", "finish + lifelines"),
            ("RandomAccess", "randomaccess", "function shipping"),
            ("producer-consumer", "producer_consumer", "cofence")):
        table.add_row([program, sync, r[key],
                       "clean" if r[key] == 0 else "RACY"])
    table.add_row(["control (no cofence)", "none — seeded bug", r["control"],
                   "RACY (expected)" if r["control"] else "MISSED"])
    return table


def _races_check(r: dict) -> None:
    for key in ("uts", "randomaccess", "producer_consumer"):
        assert r[key] == 0, f"{key} races under its own synchronization"
    assert r["ra_errors"] == 0, "function shipping lost updates"
    assert r["control"] > 0, "the producer without cofence went unflagged"
    assert "cofence" in r["control_hint"], "the hint misses the cofence"


EXPERIMENTS["races"] = Experiment(
    _races,
    {"ci": dict(n_images=8, tree=_tree(6),
                iterations=50, updates_per_image=32),
     "quick": dict(n_images=4, tree=_tree(6), iterations=10,
                   updates_per_image=16)},
    _races_table, _races_check)
