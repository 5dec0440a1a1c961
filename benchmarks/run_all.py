"""Perf-regression harness for the simulation substrate.

Times the ``bench_simulator_throughput`` and ``bench_fuzz_throughput``
workloads and writes ``BENCH_simulator.json`` next to the repo root.

Every bench runs in :data:`INTERPRETERS` fresh interpreters, taken in
turn across the benches so that a slow spell on a shared host lands on
a few samples of each.  In each interpreter the body runs once to warm
up and to check its return value, then :data:`REPS` times, each
repetition bracketed by the end-to-end benchmark's calibration loop
(``benchmarks/e2e/estimator.py``) and converted to *nominal seconds*.
The recorded number, ``nominal_s``, is the median over every repetition
of every interpreter; ``benchmarks/compare_bench.py`` gates it.  (Not
the best repetition per interpreter: a minimum of ratios favours the
repetition whose calibration ran slow, and scatters more run to run.)

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick --out /tmp/now.json
    python benchmarks/compare_bench.py BENCH_simulator.json /tmp/now.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE))

from benchmarks.e2e.estimator import calibrate, in_timebase  # noqa: E402
from bench_simulator_throughput import (  # noqa: E402
    AM_IMAGES,
    AM_ROUNDS,
    COLL_IMAGES,
    COLL_ROUNDS,
    RAW_EVENTS,
    TASK_COUNT,
    TASK_STEPS,
    WIRE_MSGS,
    run_am_round_trip,
    run_collective_rounds,
    run_raw_event_loop,
    run_task_switch,
    run_wire_throughput,
)
from bench_fuzz_throughput import (  # noqa: E402
    FUZZ_SCHEDULES,
    run_fuzz_schedules,
)
from bench_parallel import measure_parallel  # noqa: E402
from bench_weak_scaling import measure_weak_scaling  # noqa: E402

DEFAULT_OUT = HERE.parent / "BENCH_simulator.json"

#: fresh interpreters per bench
INTERPRETERS = 5
#: timed repetitions per interpreter
REPS = 5

#: (name, workload, expected return, unit count, unit name)
BENCHES = [
    ("test_raw_event_loop_throughput", run_raw_event_loop, RAW_EVENTS,
     RAW_EVENTS, "events"),
    ("test_task_switch_throughput", run_task_switch, True,
     TASK_STEPS * TASK_COUNT, "task switches"),
    ("test_am_round_trip_throughput", run_am_round_trip,
     AM_IMAGES * AM_ROUNDS, AM_IMAGES * AM_ROUNDS, "spawns"),
    ("test_wire_throughput", run_wire_throughput, WIRE_MSGS, WIRE_MSGS,
     "messages"),
    ("test_collective_round_throughput", run_collective_rounds,
     COLL_IMAGES * COLL_ROUNDS, COLL_ROUNDS, "rounds"),
    ("test_fuzz_schedule_throughput", run_fuzz_schedules, FUZZ_SCHEDULES,
     FUZZ_SCHEDULES, "schedules"),
]


def time_bench(name: str) -> None:
    """In a fresh interpreter: warm ``name`` up, check its return value,
    and print its repetitions in nominal seconds."""
    [(fn, expected)] = [(b[1], b[2]) for b in BENCHES if b[0] == name]
    result = fn()
    if result != expected:
        raise SystemExit(
            f"{name}: workload returned {result!r}, expected {expected!r}"
            " — refusing to record a broken benchmark")
    calibrate()  # the first pass in a process grows the heap: discard it
    gc.collect()
    cal = calibrate()
    reps = []
    for _ in range(REPS):
        start = perf_counter()
        fn()
        wall = perf_counter() - start
        gc.collect()
        before, cal = cal, calibrate()
        reps.append(in_timebase("cal", wall, before, cal))
    print(json.dumps(reps))


def _samples(name: str) -> list[float]:
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import run_all; run_all.time_bench({name!r})")
    # one hash seed, as benchmarks/e2e/run.py: every interpreter lays out
    # its dicts and sets alike
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    if done.returncode != 0:
        raise SystemExit(f"{name}: timing interpreter exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure() -> dict:
    samples: dict[str, list[float]] = {b[0]: [] for b in BENCHES}
    for _ in range(INTERPRETERS):
        for name in samples:
            samples[name] += _samples(name)
    benches = {}
    for name, _fn, _expected, units, unit_name in BENCHES:
        nominal = statistics.median(samples[name])
        benches[name] = {
            "nominal_s": nominal,
            "samples": samples[name],
            "units": units,
            "unit_name": unit_name,
            "per_second": units / nominal,
        }
        q1, _, q3 = statistics.quantiles(samples[name])
        print(f"  {name}: {nominal * 1e3:8.2f} nominal ms  "
              f"({units / nominal:,.0f} {unit_name}/s, "
              f"IQR {(q3 - q1) / nominal:.1%})")
    return benches


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller weak-scaling and process-backend "
                         "sections (the benches are timed alike)")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help=f"output JSON (default {DEFAULT_OUT})")
    ap.add_argument("--skip-weak-scaling", action="store_true",
                    help="skip the weak-scaling section (footprint + "
                         "paper-scale app runs)")
    ap.add_argument("--skip-parallel", action="store_true",
                    help="skip the process-backend scaling section")
    args = ap.parse_args()

    print(f"run_all: {INTERPRETERS} interpreters x {REPS} repetitions per "
          f"bench (python {platform.python_version()})")
    benches = measure()
    doc = {
        "schema": 4,
        "python": platform.python_version(),
        "interpreters": INTERPRETERS,
        "reps": REPS,
        "benches": benches,
        # headline number for the fuzzing service (DESIGN.md §15); the
        # regression gate runs on the bench's nominal_s, this key just
        # makes the throughput easy to quote
        "fuzz_schedules_per_sec":
            benches["test_fuzz_schedule_throughput"]["per_second"],
    }

    if not args.skip_weak_scaling:
        print("weak scaling (DESIGN.md §13):")
        doc["weak_scaling"] = measure_weak_scaling(quick=args.quick)

    if not args.skip_parallel:
        print("process-backend scaling (DESIGN.md §14):")
        doc["parallel"] = measure_parallel(quick=args.quick)

    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
