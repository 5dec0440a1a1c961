"""Smoke tests of the benchmark itself: ``pytest benchmarks/e2e``.

Not part of tier-1 (``testpaths`` is ``tests``): the quick benchmark these
tests drive takes most of a minute.
"""

import json
import math
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.trace import LAYERS, Tracer

SPEC = run.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_report():
    """One ``--quick --trace`` pass over every workload."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick", "--trace",
         "--seed", "5"], cwd=run.ROOT, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((run.OUT / "report.json").read_text())


def test_declared_names_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


def test_quick_emits_every_declared_metric(quick_report):
    assert quick_report["quick"] is True
    results = quick_report["results"]
    assert ([r["workload"] for r in results if not r["trace"]]
            == run.WORKLOAD_NAMES)
    for result in results:
        declared = SPEC["per_layer" if result["trace"] else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for spec in declared:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"]), spec["name"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        if not result["trace"]:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layers_idle_where_predicted_and_self_times_add_up(quick_report):
    everywhere = set(run.WORKLOAD_NAMES)
    spawning = {"ra_ship_sim", "uts_sim", "uts_chaos_sim", "ra_ship_proc"}
    active = {
        "sim": everywhere - {"ra_ship_proc"},
        "core.spawn": spawning,
        "core.copy": {"halo_sim"},
        "core.cofence": {"halo_sim"},
        "runtime.event": {"halo_sim"},
        # the ft_epoch detector replaces finish's allreduce under chaos
        "core.coll": everywhere - {"halo_sim", "uts_chaos_sim"},
        "runtime.failure": {"uts_chaos_sim"},
        "backend.wire": {"ra_ship_proc"},
        "backend.transport": {"ra_ship_proc"},
        "backend.sched": {"ra_ship_proc"},
    }
    for result in quick_report["results"]:
        if not result["trace"]:
            continue
        value = {k: m["value"] for k, m in result["metrics"].items()}
        for layer, workloads in active.items():
            calls = value[f"{layer}.calls"]
            if result["workload"] in workloads:
                assert calls > 0, (layer, result["workload"])
            else:
                assert calls == 0, (layer, result["workload"])
        # quick runs trace two repetitions, whose median is their mean,
        # so the per-layer medians still add up to the repetition
        total = sum(value[f"{layer}.self_s"] for layer in LAYERS)
        assert total == pytest.approx(result["rep_s"], rel=0.02)
        assert value["trace.overhead_ratio"] > 1.0
        assert 0.0 < value["apps.self_share"] < 1.0


def test_broken_oracle_input_fails_the_run(monkeypatch, capsys):
    from benchmarks.e2e import workloads

    reference = workloads.halo_reference
    monkeypatch.setattr(
        workloads, "halo_reference",
        lambda *args: reference(*args) + 1e-6)
    code = run.main(["--child", "measure", "--workload", "halo_sim",
                     "--quick", "--seed", "2"])
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    verdict = run._verdict(payload)
    assert code != 0
    assert not verdict["correct"]
    assert 0 < verdict["failed"] <= verdict["attempted"]


def test_generator_span_books_no_time_while_suspended():
    tracer = Tracer()

    def fence():
        yield "first"
        yield "second"
        return "done"

    traced = tracer.wrap("core.cofence", fence)
    tracer.begin("test")
    gen = traced()
    assert next(gen) == "first"
    time.sleep(0.05)
    assert gen.send(None) == "second"
    time.sleep(0.05)
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    layers = tracer.end()["layers"]
    assert stop.value.value == "done"
    calls, incl, own = layers["core.cofence"]
    assert calls == 1
    assert incl < 0.01 and own < 0.01
    assert layers["apps"][2] > 0.09  # the sleeps belong to the caller


def test_install_patches_every_binding_site_and_uninstalls():
    import repro
    from repro.core import copy_async, finish, spawn
    from repro.runtime import program

    before = (repro.run_spmd, program.run_spmd, finish.count_send,
              spawn.fin.count_send, copy_async.fin.frame_at)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unpatched == []
        assert repro.run_spmd is program.run_spmd is not before[0]
        assert spawn.fin.count_send is finish.count_send is not before[2]
    finally:
        tracer.uninstall()
    assert (repro.run_spmd, program.run_spmd, finish.count_send,
            spawn.fin.count_send, copy_async.fin.frame_at) == before
