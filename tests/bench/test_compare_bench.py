"""``benchmarks/compare_bench.py``, the substrate perf gate, on
synthetic result files: which growth fails, which only warns, and its
exit codes."""

import json
import sys

import pytest

from benchmarks import compare_bench


def _doc(benches, footprint=None):
    doc = {"benches": {name: {"nominal_s": s} for name, s in benches.items()}}
    if footprint is not None:
        doc["weak_scaling"] = {"footprint": [
            {"n_images": p, "bytes_per_image": b, "startup_s_per_image": 1e-6}
            for p, b in footprint.items()]}
    return doc


def _compare(tmp_path, monkeypatch, ref, cur):
    """Run the gate on ``ref`` and ``cur``; return its exit code."""
    paths = []
    for name, doc in (("ref.json", ref), ("cur.json", cur)):
        path = tmp_path / name
        if doc is not None:
            path.write_text(json.dumps(doc))
        paths.append(str(path))
    monkeypatch.setattr(sys, "argv", ["compare_bench.py", *paths])
    try:
        compare_bench.main()
    except SystemExit as exc:
        return exc.code
    return 0


def test_growth_over_threshold_fails_naming_the_bench(tmp_path, monkeypatch,
                                                      capsys):
    code = _compare(tmp_path, monkeypatch,
                    _doc({"raw": 0.010, "task": 0.010}),
                    _doc({"raw": 0.0117, "task": 0.010}))
    assert code == compare_bench.EXIT_REGRESSION == 1
    err = capsys.readouterr().err
    assert "raw: nominal_s grew +17.0%" in err
    assert "task" not in err


def test_growth_within_threshold_passes(tmp_path, monkeypatch, capsys):
    code = _compare(tmp_path, monkeypatch,
                    _doc({"raw": 0.010, "task": 0.010}),
                    _doc({"raw": 0.0114, "task": 0.009}))
    assert code == 0
    assert "2 benches ok" in capsys.readouterr().out


def test_missing_reference_exits_2(tmp_path, monkeypatch, capsys):
    code = _compare(tmp_path, monkeypatch, None, _doc({"raw": 0.010}))
    assert code == compare_bench.EXIT_NO_BASELINE == 2
    assert "does not exist" in capsys.readouterr().err


def test_bench_absent_from_reference_only_warns(tmp_path, monkeypatch,
                                                capsys):
    code = _compare(tmp_path, monkeypatch, _doc({"raw": 0.010}),
                    _doc({"raw": 0.010, "new": 5.0}))
    assert code == 0
    assert "warn new: not in baseline" in capsys.readouterr().out


@pytest.mark.parametrize("grown, code", [(1.14, 0), (1.16, 1)])
def test_bytes_per_image_growth_fails(tmp_path, monkeypatch, grown, code):
    ref = _doc({"raw": 0.010}, footprint={64: 100.0, 1024: 20.0})
    cur = _doc({"raw": 0.010}, footprint={64: 100.0, 1024: 20.0 * grown})
    assert _compare(tmp_path, monkeypatch, ref, cur) == code


def _cpu_bound_round(ratio, before, after):
    """A round's four runs of one 100k-node tree: 1 s on one process,
    ``1 / ratio`` s on two."""
    return {"cpu_scaling": [before, after],
            "points": [{"processes": p, "nodes": 100_000,
                        "wall_s": 1.0 if p == 1 else 1.0 / ratio}
                       for p in (1, 2, 2, 1)]}


@pytest.mark.parametrize("rounds, code", [
    # a slow pair whose own probes both saw two cores: fails
    ([(2.0, 1.9, 1.8), (1.03, 1.61, 1.7)], 1),
    # the same pair with one probe that did not: printed, not gated
    ([(2.0, 1.9, 1.8), (1.03, 1.61, 1.2)], 0),
    ([(1.3, 1.5, 1.5)], 0),
])
def test_cpu_bound_gate_is_per_round(tmp_path, monkeypatch, capsys, rounds,
                                     code):
    cur = _doc({"raw": 0.010})
    cur["parallel"] = {
        "cpu_count": 2,
        "uts_scaling": [{"processes": 1, "nodes_per_s": 3000.0,
                         "wall_s": 1.6},
                        {"processes": 4, "nodes_per_s": 9000.0,
                         "wall_s": 0.5}],
        "cpu_bound_rounds": [_cpu_bound_round(*r) for r in rounds]}
    assert _compare(tmp_path, monkeypatch, _doc({"raw": 0.010}), cur) == code
    if code:
        assert "round 1: 2-process 103,000 vs 1-process 100,000" in \
            capsys.readouterr().err
