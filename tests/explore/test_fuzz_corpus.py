"""Corpus and findings-store tests: fingerprint dedup, sorted
iteration, findings persistence, and hash-seed stability (the corpus is
keyed by choice-tree fingerprint; coverage digests are hashlib, so
nothing depends on insertion order or hash seed)."""

import subprocess
import sys

from repro.explore.fuzz.corpus import Corpus, CorpusEntry, FindingStore
from repro.explore.schedule import ChoiceRecord, Schedule


def make_schedule(choices, key="m:0->1", outcome=None):
    return Schedule([ChoiceRecord("lag", 4, c, key=key) for c in choices],
                    outcome=outcome)


class TestCorpusEntry:
    def test_features_recomputed_from_records(self):
        entry = CorpusEntry(make_schedule([1, 2]))
        assert entry.feats
        assert entry.fingerprint == make_schedule([1, 2]).fingerprint()


class TestCorpus:
    def test_dedup_by_fingerprint(self):
        corpus = Corpus()
        assert corpus.add(make_schedule([1, 0])) is not None
        assert corpus.add(make_schedule([1, 0])) is None
        assert corpus.add(make_schedule([0, 1])) is not None
        assert len(corpus) == 2

    def test_iteration_is_sorted_by_fingerprint(self):
        corpus = Corpus()
        for choices in ([3], [1], [2]):
            corpus.add(make_schedule(choices))
        fps = [e.fingerprint for e in corpus]
        assert fps == sorted(fps) == sorted(corpus.entries)

    def test_fingerprints_are_hashseed_stable(self):
        """Fingerprint and corpus order must not depend on the process
        hash seed, or a seeded fuzz run would not repeat."""
        script = (
            "from repro.explore.fuzz.corpus import Corpus\n"
            "from repro.explore.schedule import ChoiceRecord, Schedule\n"
            "c = Corpus()\n"
            "for ch in ([1, 2], [2], [0, 3]):\n"
            "    c.add(Schedule([ChoiceRecord('lag', 4, x, key='k')\n"
            "                    for x in ch]))\n"
            "print('\\n'.join(e.fingerprint for e in c))\n"
        )
        outs = []
        for seed in ("1", "999"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestFindingStore:
    def test_dedup_by_kind_and_fingerprint(self):
        store = FindingStore()
        sched = make_schedule([1])
        assert store.add("invariant", sched) == ""   # no root: empty path
        assert store.add("invariant", make_schedule([1])) is None
        assert store.add("deadlock", make_schedule([1])) == ""
        assert len(store) == 2

    def test_artifacts_named_by_kind_and_fingerprint(self, tmp_path):
        store = FindingStore(str(tmp_path))
        sched = make_schedule([2], outcome={"kind": "invariant"})
        path = store.add("invariant", sched)
        assert path.endswith(
            f"invariant-{sched.fingerprint()[:12]}.json")
        assert Schedule.load(path).choices() == [2]

    def test_load_primes_dedup_from_disk(self, tmp_path):
        root = str(tmp_path)
        sched = make_schedule([3], outcome={"kind": "invariant"})
        FindingStore(root).add("invariant", sched)
        fresh = FindingStore(root)
        assert fresh.load() == 1
        assert fresh.add("invariant", make_schedule(
            [3], outcome={"kind": "invariant"})) is None
