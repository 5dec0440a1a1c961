"""Every registered experiment at its "quick" sweep: it runs, renders its
table and passes its own shape check (the ci-scale run, and the check
that EXPERIMENTS.md carries each table, is benchmarks/bench_experiments.py).
"""

import functools

import pytest

from repro.harness import EXPERIMENTS


@functools.cache
def quick(name):
    entry = EXPERIMENTS[name]
    return entry.run(**entry.sweeps["quick"])


def sweep(name):
    return EXPERIMENTS[name].sweeps["quick"]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_quick_sweep_passes_its_shape_check(name):
    entry = EXPERIMENTS[name]
    results = quick(name)
    assert entry.table(results).rows
    entry.check(results)


# Each figure's results cover its sweep, one point per swept value, and
# the tiny-scale claims no shape check states hold.

def test_fig05():
    assert set(quick("fig05")) == {"barrier", "epoch"}


def test_fig12_tiny():
    results = quick("fig12")
    assert set(results) == {"finish", "events", "cofence"}
    for series in results.values():
        assert tuple(series) == sweep("fig12")["cores"]
        assert all(t > 0 for t in series.values())


def test_fig13_tiny():
    results = quick("fig13")
    assert list(results) == ["get-update-put", "FS w/ 2 finish/img",
                             "FS w/ 4 finish/img", "FS w/ 8 finish/img"]


def test_fig14_tiny():
    results = quick("fig14")
    for by_cores in results.values():
        for series in by_cores.values():
            assert tuple(series) == sweep("fig14")["bunch_sizes"]
            assert series[4] > series[16]


def test_fig16_tiny():
    assert tuple(quick("fig16")) == sweep("fig16")["cores"]


def test_fig17_tiny():
    results = quick("fig17")
    assert tuple(results) == sweep("fig17")["cores"]
    assert 0 < results[4] <= results[2] <= 1.001


def test_fig18_tiny():
    for series in quick("fig18").values():
        assert tuple(series) == sweep("fig18")["cores"]


def test_theorem1_tiny():
    assert tuple(quick("theorem1")) == sweep("theorem1")["chain_lengths"]


def test_ablation_detectors_tiny():
    assert list(quick("detectors")) == ["epoch", "wave_drain",
                                        "wave_unbounded", "four_counter",
                                        "vector_count"]


def test_ablation_radix_tiny():
    assert tuple(quick("radix")) == sweep("radix")["radixes"]


def test_ablation_steal_chunk_tiny():
    assert tuple(quick("steal_chunk")) == sweep("steal_chunk")["medium_sizes"]
