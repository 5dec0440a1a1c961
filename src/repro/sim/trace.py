"""Measurement probes for simulation runs.

The benchmark harness never reaches into runtime internals; everything it
reports flows through these probes:

- :class:`Stats` — named monotonic counters (messages sent, allreduce
  rounds, steals attempted, ...);
- :class:`IntervalAccumulator` — total busy time per image, from which the
  harness computes load balance and parallel efficiency.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np


class Stats:
    """Named monotonic counters with hierarchical keys.

    >>> s = Stats()
    >>> s.incr("net.msgs")
    >>> s.incr("net.msgs", 2)
    >>> s["net.msgs"]
    3
    """

    def __init__(self) -> None:
        #: the counters by key; the per-message paths bump
        #: ``counts[key] += n`` in place rather than call :meth:`incr`
        self.counts: dict[str, int] = defaultdict(int)

    def incr(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def __getitem__(self, key: str) -> int:
        return self.counts.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self.counts

    def keys(self) -> Iterator[str]:
        return iter(sorted(self.counts))

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def with_prefix(self, prefix: str) -> dict[str, int]:
        """All counters whose key starts with ``prefix``."""
        return {k: v for k, v in self.counts.items() if k.startswith(prefix)}


class IntervalAccumulator:
    """Accumulates busy-time per stream (e.g. per image).

    Images report work intervals as they execute; the harness then derives
    per-image work fractions (paper Fig. 16) and parallel efficiency
    (paper Fig. 17) from the totals.
    """

    def __init__(self, n_streams: int):
        if n_streams <= 0:
            raise ValueError("n_streams must be positive")
        self.n_streams = n_streams
        # a list: a float add on it is several times cheaper than on a
        # numpy element, and it is one per simulated compute
        self._busy = [0.0] * n_streams

    def add(self, stream: int, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        if stream < 0 or stream >= self.n_streams:
            # A negative stream would silently wrap via numpy indexing and
            # credit another stream's busy time.
            raise IndexError(
                f"stream {stream} out of range [0, {self.n_streams})")
        self._busy[stream] += duration

    @property
    def busy(self) -> np.ndarray:
        """Per-stream total busy time (a copy)."""
        return np.array(self._busy, dtype=np.float64)

    def total(self) -> float:
        return float(self.busy.sum())
