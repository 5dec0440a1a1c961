"""Drift-calibrated timing.

On a small shared sandbox the same CPU-bound repetition drifts by tens of
percent between invocations, and within one invocation from one second to
the next, as neighbours come and go.  A fixed calibration loop run right
beside it drifts with it, so every repetition is bracketed by that loop
and CPU-bound times are reported in *nominal seconds*: wall seconds scaled
to a machine on which the loop takes exactly :data:`NOMINAL_CAL_S`.

The loop is a miniature discrete-event simulation — a heap of timed
entries resuming generators that allocate small objects, build keys and
strings, update dicts and fire callbacks over a working set of some ten
thousand live objects — because a calibration only cancels a slowdown it
suffers to the same degree.  A pure arithmetic loop (the idea of
``benchmarks/run_all.py``) slows by 26 % when the sibling hardware thread
gets busy while the simulator workloads slow by 19 %, which leaves a 6 %
swing in their ratio; measured side by side against ``ra_ship_sim`` this
loop follows the repetition more closely (correlation 0.86 against 0.71,
log-log slope 0.82 against 0.66) and the medians of 16 repetitions scatter
by 0.7 % where the arithmetic loop leaves 2.0 %.  It shares no code with
``src/repro``, so it does not move when the runtime does.

Latency-bound repetitions (the process backend: queue hops, thread
wake-ups) do not scale with interpreter speed and stay in wall seconds.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
from collections import deque
from time import perf_counter

#: what one calibration loop "should" take; defines the nominal second
NOMINAL_CAL_S = 0.100

_RANKS = 64
_STEPS = 500
_LIVE = 10_000


class _Msg:
    __slots__ = ("src", "dst", "size", "payload")

    def __init__(self, src, dst, size, payload):
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload


class _Future:
    __slots__ = ("value", "callbacks")

    def __init__(self):
        self.value = None
        self.callbacks = []

    def resolve(self, value):
        self.value = value
        for callback in self.callbacks:
            callback(self)


def _rank(rank, stats, frames, live):
    state = rank + 1
    for step in range(_STEPS):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        dst = (state >> 33) % 512
        msg = _Msg(rank, dst, 32 + step % 8, (step, f"k{dst % 16}", None))
        key = (dst, (0, step // 64))
        frame = frames.get(key)
        if frame is None:
            frame = frames[key] = [0, 0, {}]
        frame[0] += 1
        frame[2][rank] = frame[2].get(rank, 0) + 1
        kind = f"net.kind.{msg.payload[1]}"
        stats[kind] = stats.get(kind, 0) + 1
        future = _Future()
        future.callbacks.append(
            lambda _f, frame=frame: frame.__setitem__(1, frame[1] + 1))
        live.append((msg, future))
        if len(live) > _LIVE:
            old_msg, old_future = live.popleft()
            old_future.resolve(old_msg.size)
        yield msg


def calibrate() -> float:
    """Wall seconds of the fixed miniature event loop (about 0.1 s)."""
    start = perf_counter()
    stats, frames, live = {}, {}, deque()
    heap = [[0.0, rank, _rank(rank, stats, frames, live)]
            for rank in range(_RANKS)]
    seq = _RANKS
    while heap:
        entry = heapq.heappop(heap)
        try:
            msg = entry[2].send(None)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, [entry[0] + 1e-6 * (1 + msg.dst % 4), seq,
                              entry[2]])
    return perf_counter() - start


def calibrate_spawn() -> float:
    """Wall seconds to start an interpreter that imports numpy (about
    0.1 s): the calibration for set-up times.  Starting a process is
    exec, page faults and file reads, which the event loop above has none
    of — measured over 70 set-ups, medians of 7 scattered by 12 % when
    divided by the loop and by 4 % when divided by this."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


def in_timebase(timebase: str, wall: float, cal_before: float,
                cal_after: float) -> float:
    """``wall`` seconds in the workload's timebase (``cal`` or ``wall``)."""
    if timebase == "wall":
        return wall
    return wall / ((cal_before + cal_after) / 2.0) * NOMINAL_CAL_S
