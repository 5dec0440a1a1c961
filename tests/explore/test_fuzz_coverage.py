"""Coverage-signal unit tests: feature extraction and the coverage
map (DESIGN.md §15)."""

import subprocess
import sys

from repro.explore.fuzz.coverage import (
    COUNT_CAP,
    PREFIX_DEPTHS,
    CoverageMap,
    fault_digest,
    features,
)
from repro.explore.schedule import ChoiceRecord


def rec(domain="lag", n=3, choice=0, key="msg:0->1", labels=()):
    return ChoiceRecord(domain, n, choice, labels=labels, key=key)


def sample_records():
    return [
        rec("fault", 4, 2, key="crash@1",
            labels=("none", "t=1", "t=2", "t=3")),
        rec("ready", 3, 1, key=None),
        rec("lag", 3, 0, key="spawn:0->2"),
        rec("lag", 3, 2, key="event.post:1->0"),
        rec("lag", 3, 1, key="event.post:1->0"),
    ]


class TestFeatures:
    def test_unigrams_and_fault_context(self):
        feats = features(sample_records())
        salt = fault_digest(sample_records())
        assert f"ctx|{salt}" in feats
        assert "u|fault|crash@1|2" in feats
        assert "u|ready||1" in feats
        assert "u|lag|event.post:1->0|2" in feats
        # lag/fault unigrams are additionally fault-salted
        assert f"s|lag|event.post:1->0|2|{salt}" in feats
        assert not any(f.startswith("s|ready") for f in feats)

    def test_count_buckets_track_key_multiplicity(self):
        feats = features(sample_records())
        assert "kc|event.post:1->0|2" in feats
        assert "kc|spawn:0->2|1" in feats
        many = [rec(key="k", choice=0)] * (COUNT_CAP + 3)
        assert f"kc|k|{COUNT_CAP}+" in features(many)

    def test_bigrams_skip_unkeyed_records(self):
        feats = features(sample_records())
        # the ready point (no key) is invisible to the bigram chain
        assert "b|crash@1|2|spawn:0->2|0" in feats

    def test_prefix_hash_depths(self):
        records = [rec(key=f"k{i}") for i in range(PREFIX_DEPTHS[1])]
        prefixes = {f for f in features(records) if f.startswith("p|")}
        assert len(prefixes) == 2  # depths 4 and 8 reached

    def test_fault_digest_is_order_independent(self):
        a = [rec("fault", 3, 1, key="crash@1"),
             rec("fault", 4, 2, key="partition@0")]
        assert fault_digest(a) == fault_digest(list(reversed(a)))
        assert fault_digest([rec("lag")]) == "nofault"

    def test_features_are_hashseed_stable(self):
        """The whole point of hashlib digests: byte-identical features
        under PYTHONHASHSEED variation, so a seeded fuzz run repeats."""
        script = (
            "from repro.explore.fuzz.coverage import features\n"
            "from repro.explore.schedule import ChoiceRecord\n"
            "records = [ChoiceRecord('fault', 4, 2, key='crash@1'),\n"
            "           ChoiceRecord('lag', 3, 1, key='a:0->1'),\n"
            "           ChoiceRecord('lag', 3, 2, key='b:1->0')]\n"
            "print('\\n'.join(sorted(features(records))))\n"
        )
        outs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestCoverageMap:
    def test_observe_reports_only_new(self):
        cov = CoverageMap()
        assert cov.observe({"a", "b"}) == {"a", "b"}
        assert cov.observe({"b", "c"}) == {"c"}
        assert cov.counts == {"a": 1, "b": 2, "c": 1}

    def test_rarity_prefers_rare_features(self):
        cov = CoverageMap()
        for _ in range(9):
            cov.observe({"common"})
        cov.observe({"rare"})
        assert cov.rarity({"rare"}) > cov.rarity({"common"})

    def test_merge_is_commutative(self):
        a, b = CoverageMap(), CoverageMap()
        for feats in ({"x", "y"}, {"x"}):
            a.observe(feats)
        for feats in ({"y", "z"}, {"y"}, {"y"}):
            b.observe(feats)
        ab, ba = CoverageMap(), CoverageMap()
        for merged, order in ((ab, (a, b)), (ba, (b, a))):
            for part in order:
                merged.merge(part)
        assert ab.counts == ba.counts == {"x": 2, "y": 4, "z": 1}

    def test_fault_untried_lists_unseen_alternatives(self):
        records = [rec("fault", 4, 1, key="crash@1")]
        cov = CoverageMap()
        cov.observe(features(records))            # alternative 1 seen
        untried = cov.fault_untried(records)
        assert untried == {0: [0, 2, 3]}
        cov.observe({"u|fault|crash@1|0", "u|fault|crash@1|2",
                     "u|fault|crash@1|3"})
        assert cov.fault_untried(records) == {}
