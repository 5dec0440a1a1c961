"""Tests for the `python -m repro.harness` entry point."""

import dataclasses

import pytest

from repro.harness import EXPERIMENTS
from repro.harness.__main__ import main


def test_experiment_registry_covers_every_figure():
    assert {"fig05", "fig12", "fig13", "fig14", "fig16", "fig17",
            "fig18", "theorem1"} <= set(EXPERIMENTS)


def test_quick_single_experiment(capsys):
    assert main(["--quick", "fig05"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 5" in out
    assert "NO (exited early)" in out


def test_report_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    assert main(["--quick", "theorem1", "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text in capsys.readouterr().out
    assert "Theorem 1" in text


def test_failed_shape_check_exits_nonzero_naming_it(monkeypatch, capsys):
    def wrong(results):
        raise AssertionError("the barrier is sound after all")

    monkeypatch.setitem(EXPERIMENTS, "fig05", dataclasses.replace(
        EXPERIMENTS["fig05"], check=wrong))
    assert main(["--quick", "fig05", "theorem1"]) == 1
    out = capsys.readouterr().out
    assert "fig05: shape check FAILED: the barrier is sound" in out
    assert out.rstrip().endswith("shape check failed: fig05")


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["--quick", "fig99"])
