"""Compare two ``run_all.py`` result files and fail on regression.

Usage (what the CI ``perf-smoke`` job runs)::

    PYTHONPATH=src python benchmarks/run_all.py --quick --out /tmp/now.json
    python benchmarks/compare_bench.py BENCH_simulator.json /tmp/now.json

Exits non-zero when any benchmark's ``nominal_s`` (machine-portable
seconds, see ``run_all.py``) grew by more than :data:`THRESHOLD` over the
committed reference; residual noise is what the threshold absorbs.

``--update-baseline`` rewrites the reference file from the current run
instead of comparing (the sanctioned way to move the baseline after an
intentional perf change).

Exit codes: 0 ok, 1 regression, 2 missing/unreadable baseline.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

EXIT_REGRESSION = 1
EXIT_NO_BASELINE = 2

#: allowed fractional growth of a bench's nominal_s (and of bytes_per_image)
THRESHOLD = 0.15

#: two processes on two cores must beat one by this on CPU-bound work ...
CPU_BOUND_MIN_SPEEDUP = 1.2
#: ... in a round where two processes of plain hashing beat one by this,
#: both just before and just after it (a shared container's cpu_count
#: promises cores it may not get, and not for the whole run)
CPU_SCALING_MIN = 1.5


def _load(path: Path, role: str) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        print(f"error: {role} file {path} does not exist", file=sys.stderr)
        if role == "reference":
            print(
                "hint: generate the baseline with\n"
                "  PYTHONPATH=src python benchmarks/run_all.py "
                f"--out {path}\n"
                "or adopt a fresh run as the new baseline with\n"
                f"  python benchmarks/compare_bench.py {path} "
                "<current.json> --update-baseline",
                file=sys.stderr)
        raise SystemExit(EXIT_NO_BASELINE)
    except json.JSONDecodeError as exc:
        print(f"error: {role} file {path} is not valid JSON: {exc}",
              file=sys.stderr)
        raise SystemExit(EXIT_NO_BASELINE)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("reference", type=Path,
                    help="committed BENCH_simulator.json")
    ap.add_argument("current", type=Path,
                    help="fresh run_all.py output to check")
    ap.add_argument("--update-baseline", action="store_true",
                    help="overwrite REFERENCE with CURRENT instead of "
                         "comparing")
    args = ap.parse_args()

    cur = _load(args.current, "current")
    if args.update_baseline:
        if "benches" not in cur:
            print(f"error: {args.current} has no 'benches' section; "
                  "refusing to install it as the baseline",
                  file=sys.stderr)
            raise SystemExit(EXIT_NO_BASELINE)
        shutil.copyfile(args.current, args.reference)
        print(f"baseline {args.reference} updated from {args.current} "
              f"({len(cur['benches'])} benches)")
        return

    ref = _load(args.reference, "reference")

    failures = []
    ref_benches = ref.get("benches", {})
    cur_benches = cur.get("benches", {})
    for name, ref_bench in sorted(ref_benches.items()):
        cur_bench = cur_benches.get(name)
        if cur_bench is None:
            failures.append(f"{name}: missing from current run")
            continue
        ref_s = ref_bench["nominal_s"]
        cur_s = cur_bench["nominal_s"]
        growth = cur_s / ref_s - 1.0
        status = "FAIL" if growth > THRESHOLD else "ok"
        print(f"{status:4s} {name}: nominal {ref_s * 1e3:.2f} -> "
              f"{cur_s * 1e3:.2f} ms ({growth:+.1%})")
        if growth > THRESHOLD:
            failures.append(f"{name}: nominal_s grew {growth:+.1%} "
                            f"(threshold {THRESHOLD:.0%})")

    # New benchmarks (or whole sections) that the committed baseline
    # predates are a warning, not a failure: a schema bump must be able
    # to land before its re-recorded baseline during a stacked rebase.
    _warn_new_keys(ref, cur, args.reference)

    failures += _check_weak_scaling(ref, cur)
    failures += _check_parallel(cur)

    if failures:
        print("\nperformance regression detected:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        raise SystemExit(EXIT_REGRESSION)
    print(f"\nno regression beyond threshold ({THRESHOLD:.0%}) — "
          f"{len(ref_benches)} benches ok")


def _warn_new_keys(ref: dict, cur: dict, ref_path: Path) -> None:
    """Warn (never fail) about current-run content the baseline lacks."""
    new_benches = sorted(set(cur.get("benches", {}))
                         - set(ref.get("benches", {})))
    known_sections = ("benches", "weak_scaling", "parallel")
    new_sections = sorted(
        s for s in known_sections if s in cur and s not in ref)
    if not new_benches and not new_sections:
        return
    for name in new_benches:
        print(f"warn {name}: not in baseline (new benchmark, ungated)")
    for name in new_sections:
        print(f"warn section '{name}': not in baseline (ungated)")
    print("hint: adopt the current run as the new baseline with\n"
          f"  python benchmarks/compare_bench.py {ref_path} "
          "<current.json> --update-baseline")


def _check_weak_scaling(ref: dict, cur: dict) -> list[str]:
    """Gate ``bytes_per_image`` at each weak-scaling point.

    Heap bytes are machine-portable (unlike wall times), so they are
    compared raw, with the same fractional threshold.  Startup times are
    printed for the record but not gated.  Absent sections are tolerated
    (runs made with ``--skip-weak-scaling``).
    """
    ref_ws = ref.get("weak_scaling")
    cur_ws = cur.get("weak_scaling")
    if ref_ws is None or cur_ws is None:
        return []
    cur_points = {p["n_images"]: p for p in cur_ws.get("footprint", [])}
    failures = []
    for ref_point in ref_ws.get("footprint", []):
        p = ref_point["n_images"]
        cur_point = cur_points.get(p)
        if cur_point is None:
            failures.append(f"weak_scaling p={p}: missing from current run")
            continue
        ref_bytes = ref_point["bytes_per_image"]
        cur_bytes = cur_point["bytes_per_image"]
        growth = cur_bytes / ref_bytes - 1.0
        status = "FAIL" if growth > THRESHOLD else "ok"
        print(f"{status:4s} weak_scaling p={p}: {ref_bytes:.0f} -> "
              f"{cur_bytes:.0f} B/img ({growth:+.1%}); startup "
              f"{cur_point['startup_s_per_image'] * 1e6:.2f} us/img")
        if growth > THRESHOLD:
            failures.append(
                f"weak_scaling p={p}: bytes_per_image grew {growth:+.1%} "
                f"(threshold {THRESHOLD:.0%})")
    return failures


def _check_parallel(cur: dict) -> list[str]:
    """Gate the process-backend scaling section on *self-consistency*:
    throughput at the largest process count must beat one process.

    Wall-clock throughputs are not portable across machines, so the
    current run is only compared against itself — the property the
    tentpole claims (real parallel speedup) rather than a number.
    The timer-based curve overlaps on any host; the CPU-bound pair
    (``cpu_bound_rounds``) can only while the run had two cores and they
    ran at once (``cpu_count``, and the ``cpu_scaling`` probes just
    before and after the pair), so each round is gated where its own
    probes vouch for it and printed elsewhere.  Absent sections and keys
    are tolerated (runs made with ``--skip-parallel``, or a baseline
    that predates them).
    """
    par = cur.get("parallel")
    if par is None:
        return []
    points = sorted(par.get("uts_scaling", []),
                    key=lambda p: p["processes"])
    if len(points) < 2:
        return []
    base, top = points[0], points[-1]
    speedup = top["nodes_per_s"] / base["nodes_per_s"]
    for p in points:
        print(f"  parallel p={p['processes']}: "
              f"{p['nodes_per_s']:,.0f} nodes/s "
              f"(wall {p['wall_s']:.2f}s)")
    failures = []
    if speedup <= 1.0:
        failures.append(
            f"parallel: {top['processes']}-process throughput "
            f"({top['nodes_per_s']:,.0f} nodes/s) does not beat "
            f"1-process ({base['nodes_per_s']:,.0f} nodes/s)")
    else:
        print(f"ok   parallel: {top['processes']}-process speedup "
              f"{speedup:.2f}x over {base['processes']}-process")
    gate_cores = par.get("cpu_count", 1) >= 2
    for i, rnd in enumerate(par.get("cpu_bound_rounds", [])):
        rate = {}
        for count in (1, 2):
            runs = [p for p in rnd["points"] if p["processes"] == count]
            rate[count] = (sum(p["nodes"] for p in runs)
                           / sum(p["wall_s"] for p in runs))
        ratio = rate[2] / rate[1]
        before, after = rnd["cpu_scaling"]
        gated = gate_cores and min(before, after) >= CPU_SCALING_MIN
        line = (f"parallel cpu-bound round {i}: 2-process {rate[2]:,.0f} "
                f"vs 1-process {rate[1]:,.0f} nodes/s ({ratio:.2f}x; "
                f"{par.get('cpu_count')} cores, plain hashing scaled "
                f"{before:.2f}x before and {after:.2f}x after)")
        if gated and ratio < CPU_BOUND_MIN_SPEEDUP:
            failures.append(f"{line}: below {CPU_BOUND_MIN_SPEEDUP}x")
        else:
            print(f"{'ok  ' if gated else 'info'} {line}")
    return failures


if __name__ == "__main__":
    main()
