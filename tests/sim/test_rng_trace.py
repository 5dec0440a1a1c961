"""Unit tests for rng streams and tracing probes."""

import numpy as np
import pytest

from repro.sim.rng import RngPool
from repro.sim.trace import IntervalAccumulator, Stats


class TestRngPool:
    def test_reproducible_across_pools(self):
        a = RngPool(seed=7, n_streams=4)
        b = RngPool(seed=7, n_streams=4)
        for i in range(4):
            assert np.array_equal(a[i].integers(0, 1000, 16), b[i].integers(0, 1000, 16))

    def test_streams_are_independent(self):
        pool = RngPool(seed=7, n_streams=2)
        x = pool[0].integers(0, 2**31, 64)
        y = pool[1].integers(0, 2**31, 64)
        assert not np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = RngPool(seed=1, n_streams=1)
        b = RngPool(seed=2, n_streams=1)
        assert not np.array_equal(a[0].integers(0, 2**31, 64), b[0].integers(0, 2**31, 64))

    def test_out_of_range_index(self):
        pool = RngPool(seed=0, n_streams=2)
        with pytest.raises(IndexError):
            pool[2]
        with pytest.raises(IndexError):
            pool[-1]

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            RngPool(seed=0, n_streams=0)


class TestStats:
    def test_incr_and_read(self):
        s = Stats()
        s.incr("a.b")
        s.incr("a.b", 4)
        assert s["a.b"] == 5
        assert s["missing"] == 0
        assert "a.b" in s
        assert "missing" not in s

    def test_with_prefix(self):
        s = Stats()
        s.incr("net.sent", 3)
        s.incr("net.recv", 2)
        s.incr("finish.rounds", 1)
        assert s.with_prefix("net.") == {"net.sent": 3, "net.recv": 2}

    def test_keys_sorted(self):
        s = Stats()
        s.incr("z")
        s.incr("a")
        assert list(s.keys()) == ["a", "z"]


class TestIntervalAccumulator:
    def test_busy_accumulation(self):
        acc = IntervalAccumulator(3)
        acc.add(0, 2.0)
        acc.add(0, 1.0)
        acc.add(2, 3.0)
        assert acc.busy.tolist() == [3.0, 0.0, 3.0]
        assert acc.total() == 6.0

    def test_busy_is_float64_with_exact_sums(self):
        acc = IntervalAccumulator(2)
        for d in (0.1, 0.2, 0.3, 1e-7):
            acc.add(1, d)
        busy = acc.busy
        assert busy.dtype == np.float64
        # the same additions in the same order, bit for bit
        assert busy.tolist() == [0.0, ((0.1 + 0.2) + 0.3) + 1e-7]
        assert acc.total() == busy[1]

    def test_negative_duration_rejected(self):
        acc = IntervalAccumulator(1)
        with pytest.raises(ValueError):
            acc.add(0, -1.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            IntervalAccumulator(0)

    def test_stream_out_of_range_rejected(self):
        # regression: a negative stream used to wrap via numpy indexing
        # and silently credit the last stream's busy time
        acc = IntervalAccumulator(3)
        with pytest.raises(IndexError):
            acc.add(-1, 1.0)
        with pytest.raises(IndexError):
            acc.add(3, 1.0)
        acc.add(2, 1.0)
        assert acc.busy.tolist() == [0.0, 0.0, 1.0]
