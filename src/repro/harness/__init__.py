"""Experiment harness: the paper's evaluation as one registry.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-measured results.
"""

from repro.harness.reporting import Table, format_seconds
from repro.harness.experiments import EXPERIMENTS

__all__ = ["EXPERIMENTS", "Table", "format_seconds"]
