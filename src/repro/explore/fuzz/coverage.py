"""Coverage signal for schedule×fault fuzzing (DESIGN.md §15).

Code coverage is useless here — every schedule executes the same
simulator code.  What distinguishes runs is the *shape of the recorded
choice stream*: which choice points were asked (their domain/key
identity), what was answered, how often each keyed point occurred, and
in what order.  This module turns a recorded choice sequence into a set
of string *features*; the fuzzing service calls a run *novel* when it
produces a feature never seen before, and keeps its schedule in the
corpus as a mutation parent.

Feature classes (all plain strings; every digest is ``hashlib`` so the
map is byte-identical under ``PYTHONHASHSEED`` variation):

``u|domain|key|choice``
    A choice-point answer, identified by the point's stable key (lag
    and fault points) or domain (ready points).  Covering a new fault
    menu alternative — a crash time never tried — is novel by
    construction, which is what makes the menu a *searchable* axis.

``s|domain|key|choice|fault``
    The same unigram salted with a digest of the run's resolved fault
    choices.  A delivery-lag answer that was boring under one crash
    time is fresh coverage under another, so the lag ladder re-opens
    for every fault context instead of being burned globally on the
    first decoy.

``kc|key|count`` and ``sc|key|count|fault``
    Occurrence counts per point key (exact up to 9, then ``9+``),
    plain and fault-salted.  Recovery re-execution, retries and other
    control-flow consequences of a partially-reached conjunction show
    up as *more records of some key* long before an invariant trips —
    this is the staircase the corpus climbs.

``b|key|choice|key|choice``
    Adjacent keyed-record bigrams: local ordering structure.

``p|k|digest``
    Truncated prefix hashes of the (domain, key, choice) stream at a
    few geometric depths — distinguishes early-divergence runs.

``ctx|fault``
    The fault context on its own.  Its first appearance marks "a menu
    resolution never tried before", which the service uses to trigger
    the deterministic per-channel burst.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = ["CoverageMap", "fault_digest", "features"]

#: Prefix depths for ``p|…`` features.
PREFIX_DEPTHS = (4, 8, 16, 32, 64)

#: Occurrence counts are exact up to this, then lumped into "N+".
COUNT_CAP = 9


def _h(text: str, n: int = 12) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:n]


def fault_digest(records: Sequence) -> str:
    """Digest of the run's resolved fault choices — the *fault context*
    used to salt lag/count features.  Fault choice points are resolved
    at machine construction, so they are a stable prefix of the stream;
    sorting by key makes the digest order-independent anyway."""
    picks = sorted((r.key or "", r.choice) for r in records
                   if r.domain == "fault")
    if not picks:
        return "nofault"
    return _h(";".join(f"{k}={c}" for k, c in picks), 8)


def _bucket(count: int) -> str:
    return str(count) if count < COUNT_CAP else f"{COUNT_CAP}+"


def features(records: Sequence) -> Set[str]:
    """The feature set of one recorded run (see module docstring)."""
    salt = fault_digest(records)
    feats: Set[str] = {f"ctx|{salt}"}   # the fault context itself
    counts: Dict[str, int] = {}
    prev_keyed: Optional[tuple] = None
    stream = hashlib.sha256()
    depth_iter = iter(PREFIX_DEPTHS)
    next_depth = next(depth_iter, None)

    for i, rec in enumerate(records):
        key = rec.key or ""
        feats.add(f"u|{rec.domain}|{key}|{rec.choice}")
        if rec.domain != "ready":
            feats.add(f"s|{rec.domain}|{key}|{rec.choice}|{salt}")
        if key:
            counts[key] = counts.get(key, 0) + 1
            if prev_keyed is not None:
                feats.add(f"b|{prev_keyed[0]}|{prev_keyed[1]}"
                          f"|{key}|{rec.choice}")
            prev_keyed = (key, rec.choice)
        stream.update(f"{rec.domain},{key},{rec.choice};".encode())
        if next_depth is not None and i + 1 == next_depth:
            feats.add(f"p|{next_depth}|{stream.hexdigest()[:12]}")
            next_depth = next(depth_iter, None)

    for key, count in counts.items():
        feats.add(f"kc|{key}|{_bucket(count)}")
        feats.add(f"sc|{key}|{_bucket(count)}|{salt}")
    return feats


class CoverageMap:
    """Seen-feature counts.

    ``observe`` returns the subset of features that are new — the
    novelty signal.  ``merge`` sums counts, so folding a round's local
    map in is commutative and associative.
    """

    def __init__(self):
        self.counts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, feat: str) -> bool:
        return feat in self.counts

    def observe(self, feats: Iterable[str]) -> Set[str]:
        new: Set[str] = set()
        for f in feats:
            if f not in self.counts:
                new.add(f)
                self.counts[f] = 1
            else:
                self.counts[f] += 1
        return new

    def rarity(self, feats: Iterable[str]) -> float:
        """Energy signal: the sum of inverse seen-counts — schedules
        whose features are rare get more mutation attention."""
        return sum(1.0 / self.counts.get(f, 1) for f in feats)

    def merge(self, other: "CoverageMap") -> None:
        for f, c in other.counts.items():
            self.counts[f] = self.counts.get(f, 0) + c

    def fault_untried(self, records: Sequence) -> Dict[int, List[int]]:
        """For each ``"fault"`` record position in ``records``, the menu
        alternatives never seen anywhere — the directed fault-bump
        mutator's worklist."""
        out: Dict[int, List[int]] = {}
        for i, rec in enumerate(records):
            if rec.domain != "fault":
                continue
            key = rec.key or ""
            untried = [c for c in range(rec.n)
                       if f"u|fault|{key}|{c}" not in self.counts]
            if untried:
                out[i] = untried
        return out
