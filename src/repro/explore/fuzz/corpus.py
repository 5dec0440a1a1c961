"""Schedule corpus and findings store for the fuzzing service.

A *corpus* holds interesting :class:`Schedule` artifacts — runs that
produced novel coverage — deduped by choice-tree fingerprint
(:meth:`Schedule.fingerprint`: a digest of exactly what replay
consumes) and iterated in fingerprint order.

A *findings* directory holds verified failures: minimized schedules
(with their fault-plan config and recorded outcome embedded) named
``<kind>-<fingerprint12>.json``.  The pair (outcome kind, minimized
fingerprint) is the dedup identity — two runs that shrink to the same
essential core are one finding.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Set

from repro.explore.schedule import Schedule
from repro.explore.fuzz.coverage import features

__all__ = ["Corpus", "CorpusEntry", "FindingStore"]


class CorpusEntry:
    """One corpus member: the schedule plus its feature set, computed
    from the records unless the caller already has it (the derivation
    is deterministic, so both agree)."""

    __slots__ = ("schedule", "fingerprint", "feats")

    def __init__(self, schedule: Schedule,
                 feats: Optional[Set[str]] = None):
        self.schedule = schedule
        self.fingerprint = schedule.fingerprint()
        self.feats = feats if feats is not None else features(
            schedule.records)

    def __repr__(self) -> str:
        return (f"<CorpusEntry {self.fingerprint[:12]} "
                f"len={len(self.schedule)} feats={len(self.feats)}>")


class Corpus:
    """Fingerprint-keyed schedule collection.  Iteration order is
    sorted by fingerprint, so anything derived from a scan of the
    corpus is independent of insertion order."""

    def __init__(self):
        self.entries: Dict[str, CorpusEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        for fp in sorted(self.entries):
            yield self.entries[fp]

    def add(self, schedule: Schedule,
            feats: Optional[Set[str]] = None) -> Optional[CorpusEntry]:
        """Insert unless an entry with the same fingerprint exists.
        Returns the new entry, or None on dedup."""
        entry = CorpusEntry(schedule, feats)
        if entry.fingerprint in self.entries:
            return None
        self.entries[entry.fingerprint] = entry
        return entry


class FindingStore:
    """Verified-failure artifacts, deduped by (kind, fingerprint).

    ``add`` writes the minimized schedule JSON (which embeds the
    outcome and the fault-plan config, so the file alone replays) as
    ``<kind>-<fingerprint12>.json`` and returns the path, or None if
    the identity was already present.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root
        self.seen: Set[tuple] = set()
        if root:
            os.makedirs(root, exist_ok=True)

    def __len__(self) -> int:
        return len(self.seen)

    def add(self, kind: str, schedule: Schedule) -> Optional[str]:
        identity = (kind, schedule.fingerprint())
        if identity in self.seen:
            return None
        self.seen.add(identity)
        if not self.root:
            return ""
        path = os.path.join(self.root, f"{kind}-{identity[1][:12]}.json")
        schedule.save(path)
        return path

    def load(self) -> int:
        """Prime the dedup set from artifacts already on disk."""
        if not self.root or not os.path.isdir(self.root):
            return 0
        added = 0
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            schedule = Schedule.load(os.path.join(self.root, name))
            kind = (schedule.outcome or {}).get("kind", "unknown")
            identity = (kind, schedule.fingerprint())
            if identity not in self.seen:
                self.seen.add(identity)
                added += 1
        return added
