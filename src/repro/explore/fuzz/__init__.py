"""Coverage-guided schedule×fault fuzzing service (DESIGN.md §15).

Layers: :mod:`coverage` (the novelty signal over recorded choice
streams), :mod:`corpus` (the fingerprint-keyed schedule corpus and the
findings store), :mod:`mutate` (structure-aware choice-sequence
mutators), :mod:`service` (the in-process fuzz loop).
"""

from repro.explore.fuzz.coverage import CoverageMap, fault_digest, features
from repro.explore.fuzz.corpus import Corpus, CorpusEntry, FindingStore
from repro.explore.fuzz.mutate import mutate_records
from repro.explore.fuzz.service import (
    FuzzConfig,
    FuzzFinding,
    FuzzReport,
    FuzzService,
)

__all__ = [
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "FindingStore",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "FuzzService",
    "fault_digest",
    "features",
    "mutate_records",
]
