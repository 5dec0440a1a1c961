"""Many-waiters FIFO tests for the synchronization primitives.

The wait queues (Semaphore and the runtime lock table) moved
from ``list.pop(0)`` to ``collections.deque`` — O(1) wakeups instead of
O(n) shifts.  A deque preserves FIFO order only if every producer
appends and every consumer pops left, so these tests drive *many*
waiters through each primitive and assert strict arrival-order service.
"""

from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Semaphore, Task

N_WAITERS = 64


def test_semaphore_many_waiters_fifo():
    sim = Simulator()
    sem = Semaphore(sim, 0)
    served = []

    def worker(tag):
        yield from sem.acquire()
        served.append(tag)

    for tag in range(N_WAITERS):
        Task(sim, worker(tag))
    for k in range(N_WAITERS):
        sim.schedule(1.0 + k, sem.release)
    sim.run()
    assert served == list(range(N_WAITERS))


def test_semaphore_staggered_arrival_order_wins():
    # Waiters that arrive later (even with a smaller tag) queue behind
    # earlier arrivals.
    sim = Simulator()
    sem = Semaphore(sim, 0)
    served = []

    def worker(tag, arrive):
        yield Delay(arrive)
        yield from sem.acquire()
        served.append(tag)

    arrivals = [(tag, float(N_WAITERS - tag)) for tag in range(N_WAITERS)]
    for tag, arrive in arrivals:
        Task(sim, worker(tag, arrive))

    def release_all():
        for _ in range(N_WAITERS):
            sem.release()

    sim.schedule(1000.0, release_all)
    sim.run()
    assert served == [tag for tag, _ in sorted(arrivals, key=lambda p: p[1])]
