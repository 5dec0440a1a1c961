"""The paper's evaluation, every registered experiment at its "ci" sweep.

Each entry of ``repro.harness.EXPERIMENTS`` runs once under the
benchmark clock, must pass its own shape check, and must render the
table EXPERIMENTS.md records, byte for byte — the record cannot drift
from the code without this failing.
"""

from pathlib import Path

import pytest

from repro.harness import EXPERIMENTS

RECORD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(once, name):
    entry = EXPERIMENTS[name]
    results = once(entry.run, **entry.sweeps["ci"])
    entry.check(results)
    table = entry.table(results).render()
    assert table in RECORD.read_text(encoding="utf-8"), (
        f"EXPERIMENTS.md does not carry {name}'s table as the code "
        f"renders it:\n{table}")
