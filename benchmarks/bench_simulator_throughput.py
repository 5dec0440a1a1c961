"""Meta-benchmark: raw throughput of the simulation substrate itself.

Not a paper figure — this measures the machine the reproduction runs
*on*, so regressions in the event loop or the AM stack show up directly
(the per-event cost bounds the problem sizes every other bench can
afford).

``benchmarks/run_all.py`` times the ``run_*`` bodies for
``BENCH_simulator.json``; ``tests/bench/test_bench_bodies.py`` runs each
once and checks what it returns.
"""

import numpy as np

from repro.net.topology import MachineParams
from repro.net.transport import Message, Network
from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Task
from repro.runtime.program import run_spmd

RAW_EVENTS = 50_000
TASK_STEPS, TASK_COUNT = 2_000, 8
AM_ROUNDS, AM_IMAGES = 300, 4
WIRE_MSGS, WIRE_WAVE, WIRE_IMAGES, WIRE_JITTER = 10_000, 100, 8, 0.02
COLL_ROUNDS, COLL_IMAGES = 4, 64


def run_raw_event_loop(n: int = RAW_EVENTS) -> int:
    """Pure engine: schedule/execute a chain of null events."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            sim.schedule(1e-9, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def run_task_switch(steps: int = TASK_STEPS, tasks: int = TASK_COUNT) -> bool:
    """Generator tasks yielding delays (the hot path of every kernel)."""
    sim = Simulator()

    def worker():
        for _ in range(steps):
            yield Delay(1e-9)

    spawned = [Task(sim, worker()) for _ in range(tasks)]
    sim.run()
    return all(t.done_future.done for t in spawned)


def run_am_round_trip(rounds: int = AM_ROUNDS, images: int = AM_IMAGES) -> int:
    """Full-stack messaging: spawn round trips through AM + transport +
    finish counting."""

    def remote(img):
        yield from img.compute(1e-8)

    def kernel(img):
        yield from img.finish_begin()
        for _ in range(rounds):
            yield from img.spawn(remote, (img.rank + 1) % img.nimages)
        yield from img.finish_end()

    machine, _ = run_spmd(kernel, images)
    return machine.stats["spawn.executed"]


def run_wire_throughput(msgs: int = WIRE_MSGS, wave: int = WIRE_WAVE,
                        images: int = WIRE_IMAGES) -> int:
    """The transport alone: acked ``Network.send``s on a clean, jittered
    wire, a wave at a time, each wave drained (the AM round trip above
    runs at ``jitter = 0`` and never reaches the per-message jitter
    draw)."""
    sim = Simulator()
    net = Network(sim, MachineParams.uniform(images, jitter=WIRE_JITTER),
                  seed=1)
    acked = 0
    for _ in range(msgs // wave):
        receipts = [net.send(Message(i % images, (i + 1) % images, 64, None),
                             want_ack=True)
                    for i in range(wave)]
        sim.run()
        acked += sum(r.delivered.done for r in receipts)
    return acked


def run_collective_rounds(rounds: int = COLL_ROUNDS,
                          images: int = COLL_IMAGES) -> int:
    """The collective engine over the layers beneath it: per round an
    ``allreduce_async`` and a ``broadcast_async`` inside a ``finish``
    (whose termination detection runs its own allreduce waves), then one
    blocking ``allreduce``.  Returns the rounds the images got right,
    summed over images."""

    def kernel(img):
        n = img.nimages
        right = 0
        for r in range(rounds):
            total = np.zeros(1)
            root = r % n
            buf = np.full(4, float(r)) if img.rank == root else np.zeros(4)
            yield from img.finish_begin()
            img.allreduce_async(float(img.rank), result_buf=total)
            img.broadcast_async(buf, root=root)
            yield from img.finish_end()
            top = yield from img.allreduce(img.rank, op="max")
            right += (total[0] == n * (n - 1) / 2 and buf.sum() == 4.0 * r
                      and top == n - 1)
        return right

    _machine, right = run_spmd(kernel, images)
    return sum(right)
