"""Meta-benchmark: schedule throughput of the fuzzing service.

Measures the full per-schedule cost of the coverage-guided fuzz loop
(DESIGN.md §15): build a fresh machine, run the recovery-bug kernel
under a recording source, extract coverage features, update the corpus.
This is the number that bounds how much schedule×fault space a fuzzing
budget actually buys, so regressions in the recorder, the feature
extractor or the corpus bookkeeping show up here even when the raw
simulator benches are flat.

The crash menu is pinned to a single post-completion time so every
schedule runs the same failure-free program: the bench measures loop
overhead, not the (schedule-dependent) cost of minimizing findings.

``benchmarks/run_all.py`` times the ``run_*`` body for
``BENCH_simulator.json``.
"""

from repro.apps.recovery_bug import make_recovery_bug_target
from repro.explore.fuzz import FuzzConfig, FuzzService

FUZZ_SCHEDULES = 60

#: crash far past program completion (~35us) — never fires, so the
#: workload return value is deterministically the full budget
_LATE_CRASH_MENU = [3.3e-4]


def run_fuzz_schedules(budget: int = FUZZ_SCHEDULES) -> int:
    """The fuzz loop over the recovery-bug target."""
    service = FuzzService(
        make_recovery_bug_target(crash_menu=_LATE_CRASH_MENU),
        FuzzConfig(budget=budget, seed=1, lag_steps=4))
    return service.run().schedules_run
