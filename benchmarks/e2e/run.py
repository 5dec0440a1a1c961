"""End-to-end and per-layer benchmark of the CAF 2.0 runtime.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.e2e [--seed N] [--workload W] [--trace] [--quick]
                             [--selfcheck]

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  Without it every workload runs in turn, each metric is
printed by name with its unit, and a report goes to
``benchmarks/e2e/out/report.json``.

A closed loop with one client: one SPMD program at a time, every
measurement in its own fresh interpreter (``PYTHONHASHSEED=0``), never two
at once.  The exit code is non-zero when an oracle fails, a repetition
raises, or a simulated workload does not repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.e2e`` importable and keep this
    # directory (whose trace.py would shadow the stdlib module) off the path.
    sys.path[0] = str(ROOT)
# Measure this checkout's runtime, never an installed copy.
sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e2e.estimator import (NOMINAL_CAL_S, calibrate,  # noqa: E402
                                      calibrate_spawn, in_timebase)

OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: fresh interpreters timed for ``setup_s``
SETUP_CHILDREN = 7
#: simulated facts that must repeat exactly between repetitions
EXACT = ("sim_time", "sim_events", "msgs")


# --------------------------------------------------------------------- #
# Child: one fresh interpreter, one workload
# --------------------------------------------------------------------- #

def _one_rep(workload, probe, cal_before: float, tracer=None) -> dict:
    """Run and check one repetition; times are raw wall seconds."""
    rep = {"cal_before": cal_before, "error": None}
    if tracer is not None:
        tracer.begin(workload.name)
    start = perf_counter()
    try:
        result = workload.run()
    except Exception:  # noqa: BLE001 - a failed rep is a reported outcome
        rep["error"] = traceback.format_exc()
    rep["wall"] = perf_counter() - start
    if tracer is not None:
        rep["trace"] = tracer.end()
    if rep["error"] is None:
        try:
            rep["attempted"], rep["failed"] = workload.check(
                result, probe.machine)
        except Exception:  # noqa: BLE001 - a crashing oracle fails the rep
            rep["error"] = traceback.format_exc()
    if rep["error"] is not None:
        rep["attempted"] = rep["failed"] = 1
        return rep
    rep["sim_time"] = workload.sim_time(result, probe)
    if workload.backend == "sim":
        rep["sim_events"] = probe.machine.sim.events_processed
        rep["msgs"] = probe.machine.stats["net.msgs"]
    if tracer is not None:
        run = probe.machine if workload.backend == "sim" else tracer.process_run
        rep["counts"] = _layer_counts(run, workload.backend)
    return rep


def _layer_counts(run, backend: str) -> dict:
    """Counters the runtime keeps itself, read after the run."""
    stats = run.stats
    counts = {
        "net.am.short": stats["am.short"],
        "net.am.medium": stats["am.medium"],
        "net.am.long": stats["am.long"],
        "net.transport.msgs": stats["net.msgs"],
        "net.transport.bytes": stats["net.bytes"],
        "net.transport.coalesced": stats["net.deliveries_coalesced"],
        "net.transport.retransmits": stats["net.retransmits"],
        "net.transport.drops": stats["net.drops"],
        "net.transport.dups": stats["net.dups"],
        "core.spawn.initiated": stats["spawn.initiated"],
        "core.spawn.executed": stats["spawn.executed"],
        "core.copy.puts": stats["net.kind.copy.put"],
        "core.copy.gets": stats["net.kind.copy.get_req"],
        "core.finish.blocks": stats["finish.blocks"],
        "core.finish.rounds": stats["finish.rounds_total"],
        "core.coll.ops": sum(stats.with_prefix("coll.").values())
        + sum(stats.with_prefix("acoll.").values()),
        "runtime.event.notifies": stats["event.notifies"],
        "runtime.event.waits": stats["event.waits"],
        "runtime.failure.heartbeats": stats["net.kind.fail.hb"],
        "runtime.failure.suspicions": stats["fail.suspected"],
        "runtime.failure.ft_rounds": stats["ft.rounds_decided"],
    }
    if backend == "sim":
        counts["sim.events"] = run.sim.events_processed
        counts["sim.tasks_created"] = run.sim.next_task_id() - 1
        counts["backend.sched.events"] = 0
    else:
        counts["sim.events"] = counts["sim.tasks_created"] = 0
        counts["backend.sched.events"] = run.sim.events_processed
    return counts


def child_measure(args) -> dict:
    """Warm up, then repeat the workload for ``--seconds`` (``--quick``:
    three repetitions).  With ``--trace`` the first repetitions run
    untraced, to price the tracer, and the rest with spans installed."""
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS, Probe

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    probe = Probe()
    probe.install()
    tracer = None
    warmup = _one_rep(workload, probe, 0.0)
    reps, traced = [], []
    untraced_wanted = (1 if args.quick else 2) if args.trace else math.inf
    min_reps = 3 if not args.trace else untraced_wanted + 2
    calibrate()  # the first pass in a process grows the heap: discard it
    began = perf_counter()
    gc.collect()
    cal = calibrate()
    while True:
        if tracer is None and len(reps) >= untraced_wanted:
            tracer = Tracer()
            tracer.install()
        rep = _one_rep(workload, probe, cal, tracer)
        gc.collect()
        rep["cal_after"] = cal = calibrate()
        (reps if tracer is None else traced).append(rep)
        out_of_time = args.quick or (
            perf_counter() - began + rep["wall"] / 2 > args.seconds)
        if out_of_time and len(reps) + len(traced) >= min_reps:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    payload = {
        "workload": workload.name, "timebase": workload.timebase,
        "unit": workload.unit, "backend": workload.backend,
        "warmup": warmup, "reps": reps, "traced": traced,
        "peak_rss_mb": (self_kb + worker_kb) / 1024.0,
    }
    if tracer is not None:
        payload["unpatched"] = tracer.unpatched
        payload["span_sample"] = tracer.sample
    return payload


def child_setup(args) -> None:
    """Do everything up to the first kernel step, then leave at once."""
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    if workload.backend == "sim":
        from repro.runtime.program import Machine

        Machine.run = lambda machine, max_events=None: os._exit(0)
        workload.run()
        raise RuntimeError("Machine.run was never reached")
    workload.setup_only()
    os._exit(0)


# --------------------------------------------------------------------- #
# Parent: orchestrate children, turn repetitions into metrics
# --------------------------------------------------------------------- #

def _child(mode: str, args, trace: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(trace))]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=170)


def measure_setup(args) -> float:
    """``setup_s``: interpreter start to first kernel step, the median of
    several fresh interpreters, each bracketed by the start of a bare
    interpreter (see ``calibrate_spawn``) and scaled by it to nominal
    seconds, on either backend."""
    times = []
    cal = calibrate_spawn()
    for _ in range(3 if args.quick else SETUP_CHILDREN):
        start = perf_counter()
        done = _child("setup", args)
        wall = perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(
                f"setup-only child of {args.workload} exited "
                f"{done.returncode}")
        before, cal = cal, calibrate_spawn()
        times.append(in_timebase("cal", wall, before, cal))
    return statistics.median(times)


def _rep_seconds(child: dict, rep: dict) -> float:
    return in_timebase(child["timebase"], rep["wall"], rep["cal_before"],
                       rep["cal_after"])


def _verdict(child: dict) -> dict:
    """Oracle and repeatability verdict over every repetition."""
    reps = child["reps"] + child["traced"]
    problems = [rep["error"] for rep in [child["warmup"]] + reps
                if rep["error"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if child["backend"] == "sim" and not problems:
        for key in EXACT:
            seen = {rep[key] for rep in [child["warmup"]] + reps}
            if len(seen) > 1:
                problems.append(
                    f"{child['workload']}: {key} differs between "
                    f"repetitions of one seed: {sorted(seen)}")
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(child: dict, setup_s: float) -> dict:
    """A repetition that raised completed no work: it counts as zero in
    ``work_per_s`` and has no simulated time to report."""
    reps = child["reps"]
    rates = [(rep["attempted"] - rep["failed"]) / _rep_seconds(child, rep)
             for rep in reps]
    metrics = {"work_per_s": statistics.median(rates),
               "peak_rss_mb": child["peak_rss_mb"], "setup_s": setup_s}
    sim_times = [rep["sim_time"] for rep in reps if not rep["error"]]
    if sim_times:
        metrics["sim_time_us"] = 1e6 * statistics.median(sim_times)
    return metrics


def _merged_layers(rep: dict) -> dict:
    """Per-layer [calls, incl, self] of one traced repetition, in raw
    seconds.  Process workers report their own aggregates: calls add up,
    times are the mean worker's, and what no worker accounts for (fork,
    join, the coordinator's wait, verification) is ``apps`` time."""
    layers = rep["trace"]["layers"]
    workers = rep["trace"]["workers"]
    if not workers:
        return layers
    merged = {}
    for layer in layers:
        calls = sum(w["layers"][layer][0] for w in workers)
        incl = statistics.fmean(w["layers"][layer][1] for w in workers)
        own = statistics.fmean(w["layers"][layer][2] for w in workers)
        merged[layer] = [calls, incl, own]
    accounted = sum(own for _calls, _incl, own in merged.values())
    merged["apps"][0] += layers["apps"][0]
    merged["apps"][1] = rep["wall"]
    merged["apps"][2] += rep["wall"] - accounted
    return merged


def per_layer(child: dict) -> dict:
    """Medians over the traced repetitions, times in the timebase."""
    rows = []
    for rep in child["traced"]:
        if rep["error"]:
            continue
        scale = _rep_seconds(child, rep) / rep["wall"]
        layers = _merged_layers(rep)
        ops = rep["attempted"]
        counts = dict(rep["counts"])
        row = {}
        for layer, (calls, incl, own) in layers.items():
            row[f"{layer}.calls"] = calls
            row[f"{layer}.incl_s"] = incl * scale
            row[f"{layer}.self_s"] = own * scale
        workers = rep["trace"]["workers"] or [rep["trace"]]
        frames = layers["backend.wire"][0] / 2  # one dump + one load each
        wire_bytes = sum(w["wire_bytes"] for w in workers)
        build = statistics.fmean(w["build_s"] for w in workers)
        counts.update({
            "sim.events_per_op": counts["sim.events"] / ops,
            "net.transport.msgs_per_op": counts["net.transport.msgs"] / ops,
            # calls are totals, times the mean worker's: scale back up
            "core.spawn.incl_us_per_call": (
                1e6 * row["core.spawn.incl_s"] * len(workers)
                / layers["core.spawn"][0]
                if layers["core.spawn"][0] else 0.0),
            "core.finish.rounds_per_block": (
                counts["core.finish.rounds"] / counts["core.finish.blocks"]
                if counts["core.finish.blocks"] else 0.0),
            "runtime.machine.build_s": build * scale,
            "backend.wire.frames": frames,
            "backend.wire.bytes_per_frame": (
                wire_bytes / frames if frames else 0.0),
            "apps.self_share": layers["apps"][2] / rep["wall"],
        })
        row.update(counts)
        rows.append(row)
    if not rows:
        return {}
    metrics = {key: statistics.median(row[key] for row in rows)
               for key in rows[0]}
    traced = statistics.median(
        _rep_seconds(child, rep) for rep in child["traced"])
    plain = statistics.median(
        _rep_seconds(child, rep) for rep in child["reps"])
    metrics["trace.overhead_ratio"] = traced / plain
    return metrics


def run_workload(args, trace: bool) -> dict:
    """One measurement of one workload: its metrics by name, the verdict
    and the raw material for the report."""
    done = _child("measure", args, trace)
    if done.returncode not in (0, 1):  # 1: measured, but not correct
        raise RuntimeError(
            f"measurement child of {args.workload} exited {done.returncode}")
    child = json.loads(done.stdout.splitlines()[-1])
    verdict = _verdict(child)
    if trace:
        metrics = per_layer(child)
        declared = SPEC["per_layer"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "quick": args.quick, "timebase": child["timebase"],
            "metrics": metrics, "unpatched": child["unpatched"],
            "span_fields": ["id", "parent", "layer", "name", "start", "end"],
            "spans": child["span_sample"],
        }))
    else:
        metrics = end_to_end(child, measure_setup(args))
        declared = SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if verdict["correct"] and set(metrics) != set(units):
        verdict["correct"] = False
        verdict["problems"].append(
            "metrics computed and metrics declared in BENCHMARK.json "
            f"differ: {sorted(set(metrics) ^ set(units))}")
    reps = child["traced" if trace else "reps"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": trace,
        "quick": args.quick, "timebase": child["timebase"],
        "unit": child["unit"], **verdict,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        "reps": len(reps),
        "rep_s": statistics.median(_rep_seconds(child, rep) for rep in reps),
        "wall_s_raw": statistics.median(rep["wall"] for rep in reps),
        "calibration_s": statistics.median(
            rep["cal_after"] for rep in reps),
    }


def _print_metrics(result: dict, stream) -> None:
    label = " (quick: not comparable)" if result["quick"] else ""
    print(f"{result['workload']}  seed {result['seed']}  "
          f"{result['reps']} reps  timebase {result['timebase']}{label}",
          file=stream)
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:16.6f} {metric['unit']}",
              file=stream)
    print(f"  ops attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}", file=stream)
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}", file=stream)


def run_all(args) -> int:
    """Every workload in turn; prints each metric, writes the report."""
    results = []
    for name in WORKLOAD_NAMES:
        args.workload = name
        results.append(run_workload(args, trace=False))
        _print_metrics(results[-1], sys.stdout)
        if args.trace:
            results.append(run_workload(args, trace=True))
            _print_metrics(results[-1], sys.stdout)
    correct = all(r["correct"] for r in results)
    if not correct:
        print("refusing to write a report: see PROBLEM lines above")
        return 1
    OUT.mkdir(exist_ok=True)
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "nominal_calibration_s": NOMINAL_CAL_S, "quick": args.quick,
              "results": results}
    (OUT / "report.json").write_text(json.dumps(report, indent=1))
    print(f"report: {OUT / 'report.json'}")
    return 0


def selfcheck(args) -> int:
    """Measure everything twice, A and B alternating per workload, and
    fail when an end-to-end metric differs between the two sets by more
    than its own bound."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    failed = False
    for name in WORKLOAD_NAMES:
        args.workload = name
        a, b = (run_workload(args, trace=False) for _ in "AB")
        for metric, spec in bounds.items():
            va, vb = (r["metrics"][metric]["value"] for r in (a, b))
            diff = abs(va - vb) / min(va, vb)
            ok = diff <= spec["bound"] and a["correct"] and b["correct"]
            failed = failed or not ok
            print(f"{name:14s} {metric:20s} A {va:14.4f}  B {vb:14.4f}  "
                  f"spread {100 * diff:6.2f} %  bound "
                  f"{100 * spec['bound']:4.1f} %  {'ok' if ok else 'FAIL'}")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="3 reps, half-size inputs; not comparable")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child == "setup":
        child_setup(args)
    if args.child == "measure":
        payload = child_measure(args)
        print(json.dumps(payload))
        return 0 if _verdict(payload)["correct"] else 1
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no runtime to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args, trace=bool(args.trace))
    _print_metrics(result, sys.stderr)
    print(json.dumps({key: result[key] for key in (
        "correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
