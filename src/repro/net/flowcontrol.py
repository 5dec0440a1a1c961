"""Credit-based flow control.

GASNet bounds the number of unacknowledged active messages a node may
have outstanding; a sender that exhausts its tokens spins in the poll
loop until acks return, and the longer the backlog the longer each retry
cycle takes.  The paper attributes the Fig. 14 performance anomaly
(RandomAccess getting *slower* with very large ``finish`` bunch sizes)
to exactly this mechanism: bunched finish blocks drain the network
before the backlog deepens, while huge bunches drive the sender into
sustained retry.

Model:

- a token pool per sending image (GASNet node tokens: uniform-random
  traffic like RandomAccess pressures the source's pool, whatever the
  destination);
- each blocked acquire counts a *stall*; consecutive stalls form a run
  that ends when an acquire succeeds without blocking (the network
  drained);
- a stall's penalty grows with the run: ``STALL_PENALTY * min(run,
  BACKOFF_LIMIT)`` — the poll loop walking an ever-deeper retry queue.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Semaphore
from repro.sim.trace import Stats

#: Retry-cycle cost of one stall, seconds, before the run multiplier
#: (the value that reproduces the Fig. 14 anomaly).
STALL_PENALTY = 1.2e-7
#: Cap on the run multiplier.
BACKOFF_LIMIT = 64


class CreditManager:
    """Per-source outstanding-message credits with run-proportional
    stall penalty.

    Parameters
    ----------
    credits:
        Tokens per sending image.
    """

    def __init__(self, sim: Simulator, credits: int,
                 stats: Stats | None = None):
        if credits <= 0:
            raise ValueError(f"credits must be positive, got {credits}")
        self.sim = sim
        self.credits = credits
        self.stats = stats if stats is not None else Stats()
        self._pools: dict[int, Semaphore] = {}
        self._stall_runs: dict[int, int] = {}

    def _pool(self, src: int) -> Semaphore:
        pool = self._pools.get(src)
        if pool is None:
            pool = Semaphore(self.sim, self.credits, name=f"credits{src}")
            self._pools[src] = pool
        return pool

    def acquire(self, src: int) -> Generator[Any, Any, None]:
        """Take one of ``src``'s credits for a message; blocks (and pays
        the run-scaled stall penalty) when the pool is empty.  Use with
        ``yield from``.

        A stall *run* ends only when the pool has fully drained back to
        capacity (every outstanding message acknowledged) — one freed
        token does not clear the backlog.  Synchronization that drains
        the network (a bunched ``finish``) therefore resets the retry
        cost, while back-to-back saturation pays ever-longer retries.
        """
        pool = self._pool(src)
        if pool.available == self.credits:
            self._stall_runs[src] = 0
        if pool.try_acquire():
            return
        run = self._stall_runs.get(src, 0) + 1
        self._stall_runs[src] = run
        self.stats.incr("flow.stalls")
        yield from pool.acquire()
        yield Delay(STALL_PENALTY * min(run, BACKOFF_LIMIT))

    def release(self, src: int) -> None:
        """Return one credit (called when the ack arrives)."""
        self._pool(src).release()

    def outstanding(self, src: int) -> int:
        """Credits currently in use for ``src``'s pool (diagnostic)."""
        return self.credits - self._pool(src).available
