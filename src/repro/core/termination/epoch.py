"""The paper's epoch-based termination detection algorithm (Fig. 7), and
the two Fig. 18 baselines that run the same loop with a weaker gate.

Each image repeatedly:

1. waits until it is *locally quiet* in the even epoch — every message it
   sent has been acknowledged delivered, and every message it received
   has completed its local work (Fig. 7 line 4, the precondition that
   halves the number of waves, see Fig. 18);
2. advances into the odd epoch if not already hoisted there by an
   odd-tagged message (line 7);
3. joins a synchronous team allreduce of ``sent - completed`` over the
   even epoch (line 8);
4. folds the odd epoch into the even one on exit (line 10 via
   ``next_epoch``).

Global termination is detected when the reduction yields zero.  Theorem 1
bounds the number of waves by ``L + 1`` where ``L`` is the longest chain
of transitively shipped functions; a test asserts that bound on
adversarial chains.

The baselines differ from ``epoch`` only in the line-4 gate:

- ``wave_drain`` keeps only its second clause (received == completed):
  any poll loop drains its inbox between reductions, but learning about
  *deliveries* needs the ack machinery that is the paper's addition;
- ``wave_unbounded`` drops the gate and polls every ``POLL_INTERVAL``
  instead, so messages still in flight keep the sum nonzero for extra
  waves (the paper measures roughly 2x the reductions on UTS).

The paper's ~2x baseline lands between the two (EXPERIMENTS.md discusses
the placement).  Each entry returns the loop's generator itself.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.tasks import Delay
from repro.core import collectives
from repro.core.finish import FinishFrame

#: pause between ``wave_unbounded``'s waves (one wire latency's worth of
#: polling)
POLL_INTERVAL = 2.0e-6


def epoch_detector(ctx, frame: FinishFrame) -> Generator[Any, Any, int]:
    """Run the Fig. 7 algorithm for one image; returns allreduce waves."""
    if ctx.machine.failure is not None:
        # With a failure detector attached the synchronous allreduce
        # would deadlock on the first crash; swap in the fault-tolerant
        # coordinator variant transparently.
        from repro.core.termination.ft_epoch import ft_epoch_detector

        return ft_epoch_detector(ctx, frame)
    return _waves(ctx, frame, frame.even.locally_quiet, "finish.allreduce",
                  "finish.extra_waves")


def wave_drain_detector(ctx, frame: FinishFrame
                        ) -> Generator[Any, Any, int]:
    """Allreduce waves gated only on local completion of received
    messages (no delivery-ack precondition)."""
    even = frame.even
    return _waves(ctx, frame, lambda: even.received == even.completed,
                  "finish.allreduce_drain", "finish.extra_waves_drain")


def wave_unbounded_detector(ctx, frame: FinishFrame
                            ) -> Generator[Any, Any, int]:
    """Allreduce waves with no local-quiet precondition."""
    return _waves(ctx, frame, None, "finish.allreduce_unbounded",
                  "finish.extra_waves_unbounded")


def _waves(ctx, frame: FinishFrame, quiet: Optional[Callable[[], bool]],
           stat: str, extra: str) -> Generator[Any, Any, int]:
    """Fig. 7's loop, gated on ``quiet`` before each wave (ungated, and
    paced by ``POLL_INTERVAL``, when it is None)."""
    machine = ctx.machine
    even = frame.even
    rounds = 0
    while True:
        # Line 4: wait for the gate.  Counter updates wake the condition.
        if quiet is not None:
            yield from frame.cond.wait_until(quiet)
        # Line 6-7: enter the odd epoch (unless an odd-tagged message
        # already hoisted us there).
        if not frame.in_odd:
            frame.advance_to_odd()
        # Line 8: the consistent-cut sum over the even epoch.  The
        # reduction-tree radix is overridable for the ablation bench.
        outstanding = even.sent - even.completed
        frame.contributed = True
        wave_start = machine.sim.now
        total = yield from collectives.allreduce(
            ctx, outstanding, op="sum", team=frame.team,
            radix=machine.scratch.get("finish.allreduce_radix", 2),
            _stat=stat,
        )
        rounds += 1
        frame.rounds += 1
        if machine.tracer is not None:
            machine.tracer.span(ctx.rank, "finish wave", wave_start,
                                machine.sim.now - wave_start,
                                args={"outstanding": outstanding,
                                      "total": total})
        # Line 10: exit the allreduce — fold odd into even.
        frame.fold_to_even()
        if total == 0:
            return rounds
        machine.stats.incr(extra)
        if quiet is None:
            yield Delay(POLL_INTERVAL)
