"""Benchmark harness configuration.

``bench_experiments.py`` regenerates every table/figure of the paper
(see DESIGN.md §4).  Simulation runs are deterministic, so each
experiment executes once (``pedantic`` with one round); pytest-benchmark
records the wall time of the full experiment.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark clock and
    return its result."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run
