"""Function shipping (paper §II-C.2).

``spawn(fn, target, *args)`` moves a computation to another image.
Argument semantics follow the paper:

- scalars, arrays and other plain values are *copied* to the target
  (their bytes are charged to the wire);
- coarray references (:class:`~repro.runtime.coarray.CoarrayRef`,
  :class:`~repro.runtime.coarray.ImageSection`) are passed *by
  reference* — the shipped function manipulates the section where it
  lives;
- event variables and teams travel as descriptors (by reference).

A spawn travels as a *medium* active message, so its value-argument
payload is capped at ``MachineParams.am_medium_max`` bytes — the limit
that caps a UTS steal at 9 work descriptors (§IV-C).

Completion: the spawn's return guarantees initiation only.  ``local_data``
resolves when the argument buffer has been injected; ``local_op`` when the
target acknowledged delivery ("spawn is complete on the target image",
Fig. 4); execution completion is signalled through the optional event
(explicit completion) or the enclosing ``finish`` (implicit completion).
Shipped functions execute inside the spawner's finish frame, so anything
they spawn is tracked transitively.
"""

from __future__ import annotations

import copy
import inspect
from functools import partial
from typing import Any, Generator, Optional

import numpy as np

from repro.runtime.coarray import CoarrayRef, ImageSection, Coarray
from repro.runtime.event import EventRef, EventVar
from repro.runtime.memory_model import READ
from repro.runtime.sizeof import WORD, sizeof
from repro.runtime.team import Team
from repro.net.active_messages import AMCategory
from repro.net.transport import PeerFailedError
from repro.core.completion import RESOLVED, AsyncOp
from repro.core import finish as fin

_EXEC = "spawn.exec"
#: a spawn reads its argument buffer and writes nothing local
_CLASSES = frozenset({READ})
#: machine.scratch key: {shipped function: {target image: activation
#: name}}, which doubles as the record of functions already validated
_FN_NAMES = "spawn.fn_names"

#: fixed descriptor bytes per spawn (function id, frame key, tag, header)
SPAWN_HEADER_BYTES = 32
#: descriptor bytes for one by-reference argument
REF_BYTES = 16


_BY_REFERENCE = (CoarrayRef, ImageSection, Coarray, EventVar, EventRef, Team)


def _pack(args: tuple) -> tuple[int, tuple]:
    """Simulated wire size of a spawn's argument list, and the arguments
    as they travel.  Value arguments are *copied* to the target (paper
    §II-C.2) and weigh their bytes; only coarray sections, events and
    teams travel by reference, as one descriptor each.  Copying at
    initiation models the runtime packing the argument buffer."""
    size = SPAWN_HEADER_BYTES
    shipped = []
    for arg in args:
        cls = arg.__class__
        if cls is int or cls is float:
            size += WORD  # what sizeof charges a scalar; immutable
        elif isinstance(arg, _BY_REFERENCE):
            size += REF_BYTES
        else:
            size += sizeof(arg)
            if isinstance(arg, np.ndarray):
                arg = np.copy(arg)
            elif isinstance(arg, (list, dict, set, bytearray)):
                arg = copy.deepcopy(arg)
            # immutables need no copy
        shipped.append(arg)
    return size, tuple(shipped)


def payload_size(args: tuple) -> int:
    """Simulated wire size of a spawn's argument list."""
    return _pack(args)[0]


def register_handlers(machine) -> None:
    """Called once per machine, on the family's first use there."""
    machine.am.register(_EXEC, _make_exec_handler(machine))


def _activation_name(machine, fn, dst: int) -> str:
    """The name executions of ``fn`` shipped to image ``dst`` run under,
    formatted once per pair; validates ``fn`` the first time this
    machine sees it."""
    try:
        return machine.scratch[_FN_NAMES][fn][dst]
    except KeyError:
        pass
    names = machine.scratch.setdefault(_FN_NAMES, {})
    per_dst = names.get(fn)
    if per_dst is None:
        if not inspect.isgeneratorfunction(fn):
            raise TypeError(
                f"spawned function {fn!r} must be a generator function "
                "(def f(image, ...): ... yield ...)"
            )
        per_dst = names[fn] = {}
    name = per_dst[dst] = f"{getattr(fn, '__name__', 'fn')}@{dst}"
    return name


def _make_exec_handler(machine):
    from repro.runtime.image import Image

    def handle_exec(ctx, fn, args, event_ref, rc_vc, spawn_id, key, tag):
        # The shipped function stays the first argument: tracers read it
        # there.  Count reception before the function body runs: the
        # message has landed even if the task runs long (Fig. 7 separates
        # received from completed for exactly this reason).
        frame, recv_stamp = fin.count_received(machine, ctx, key, tag)
        # Recovery idempotency: when a failure service with recovery is
        # attached, every execution is recorded under its spawn id and a
        # duplicate arrival skips the body (but still balances the
        # received/completed counters).
        duplicate = False
        registry = machine.scratch.get("spawn.executed_ids")
        if registry is not None and spawn_id is not None:
            done_ids = registry.setdefault(ctx.dst, set())
            if spawn_id in done_ids:
                duplicate = True
                machine.stats.incr("spawn.dedup_skipped")
            else:
                done_ids.add(spawn_id)
        image = Image(machine, ctx.dst, frame,
                      _activation_name(machine, fn, ctx.dst))
        image.cause = recv_stamp
        if machine.racecheck is not None:
            machine.racecheck.activation_begin(image, rc_vc)
        try:
            if not duplicate:
                machine.stats.incr("spawn.executed")
                yield from fn(image, *args)
        finally:
            if machine.racecheck is not None:
                # Publish the body's final clock before the completion
                # count/event can let a finish or waiter proceed.
                machine.racecheck.activation_done(image, key, event_ref)
            fin.count_completed(frame, recv_stamp)
            if event_ref is not None:
                machine.post_event(event_ref.event, event_ref.world_rank,
                                   ctx.dst)
    return handle_exec


def spawn(ctx, fn, target: int, *args: Any,
          team: Optional[Team] = None,
          event: Optional[EventVar | EventRef] = None
          ) -> Generator[Any, Any, AsyncOp]:
    """Ship ``fn(image, *args)`` to team rank ``target`` for execution.

    ``fn`` must be a generator function taking the target-side image
    handle as its first parameter.  Use with ``yield from`` (the call may
    block on flow-control credits).  Returns the operation handle: the
    spawn is one acknowledged message, so the handle's completion points
    are the message's — injection is its local data completion, the
    delivery ack its local operation and global completion.
    """
    machine = ctx.machine
    dst = (team if team is not None else ctx.team_world).world_rank(target)
    name = _activation_name(machine, fn, dst)

    event_ref = None
    if event is not None:
        event_ref = event if isinstance(event, EventRef) else event.ref_for(ctx.rank)

    implicit = event is None
    frame = ctx.current_frame() if implicit else None

    size, shipped_args = _pack(args)
    spawn_id = machine.next_spawn_id()

    failure = machine.failure
    recover = frame is not None and failure is not None and failure.recover
    if (recover and dst != ctx.rank
            and (dst in failure.suspects or dst in machine.dead_images)):
        # Fault-tolerant reroute: the destination is already known dead,
        # so shipping would only fail after a detector round-trip.  Run
        # the function on the spawner instead (same counting as a
        # recovered ledger entry).
        machine.stats.incr("spawn.rerouted")
        _run_local(machine, ctx.rank, frame, fn, shipped_args, spawn_id,
                   name)
        return ctx.register(
            AsyncOp("spawn", _CLASSES, RESOLVED, RESOLVED, RESOLVED))

    machine.stats.incr("spawn.initiated")
    rcop = rc_vc = None
    if machine.racecheck is not None:
        rcop = machine.racecheck.spawn_begin(ctx, implicit)
        rc_vc = rcop.vc_local()
    am = machine.am
    request = (machine, frame, ctx.cause, ctx.rank, dst, _EXEC,
               (fn, shipped_args, event_ref, rc_vc, spawn_id), None, size,
               AMCategory.MEDIUM, True, "spawn")
    if am.credits is None:
        msg = fin.count_send(*request)
    else:
        msg = yield from am.request(ctx.rank, dst,
                                    partial(fin.count_send, *request))
    # The initiator cannot observe execution completion without an event;
    # global completion is finish's business.  local_op is the strongest
    # initiator-side guarantee the handle itself carries.
    delivered = msg.delivered
    op = AsyncOp("spawn", _CLASSES, msg.injected, delivered, delivered)
    op.rc = rcop
    if recover:
        frame.ledger[spawn_id] = (dst, fn, shipped_args, name)
        delivered.add_done_callback(
            partial(_recover_lost, frame, spawn_id))

    if implicit:
        ctx.register(op)
        if machine.racecheck is not None:
            machine.racecheck.spawn_registered(ctx, op)
    return op


def _recover_lost(frame, spawn_id: int, fut) -> None:
    """Done-callback of a ledgered spawn's delivery ack, after the send
    path has counted its outcome on the spawner's ``frame``: re-execute
    a lost spawn.

    A send the transport failed definitively (fresh sends fail before
    transmission; in-flight ones only once the peer is confirmed dead)
    never runs its function at the destination.  Re-execute it here now
    — reconciliation cannot, because the on_send_failed subtraction
    already rebalanced the frame, so a finish may conclude before the
    peer is ever confirmed."""
    machine = frame.machine
    if (isinstance(fut.exception(), PeerFailedError)
            and frame.world_rank not in machine.dead_images):
        entry = frame.ledger.pop(spawn_id, None)
        if entry is not None:
            machine.stats.incr("spawn.recovered")
            _dst, fn, args, name = entry
            _run_local(machine, frame.world_rank, frame, fn, args,
                       spawn_id, name)


# --------------------------------------------------------------------- #
# Fail-stop recovery: re-execute lost shipped functions
# --------------------------------------------------------------------- #

def _run_local(machine, rank: int, frame, fn, args: tuple,
               spawn_id: int, name: str) -> None:
    """Execute a (possibly recovered) spawn locally on ``rank`` inside
    ``frame``, counting the full send/delivered/received/completed
    quadruple as a loopback message so the enclosing finish waits for it
    — including anything it spawns transitively.

    Idempotency: the machine-global executed-id registry skips spawn ids
    this image already ran, so a ledger entry can never run twice here.
    (If the "dead" image was falsely suspected and in fact executed the
    original, the work is duplicated — re-execution is exactly-once only
    under fail-stop; see DESIGN §11.)"""
    registry = machine.scratch.setdefault("spawn.executed_ids", {})
    done_ids = registry.setdefault(rank, set())
    if spawn_id in done_ids:
        machine.stats.incr("spawn.dedup_skipped")
        return
    done_ids.add(spawn_id)
    stamp = frame.on_send(dst=rank)
    frame.on_delivered(stamp)
    recv_stamp = frame.on_received(stamp[0], src=rank)

    def body():
        from repro.runtime.image import Image

        image = Image(machine, rank, frame, name)
        image.cause = recv_stamp
        machine.stats.incr("spawn.executed")
        try:
            yield from fn(image, *args)
        finally:
            frame.on_completed(recv_stamp)

    machine.start_internal_task(body(), name=f"respawn.{name}", owner=rank)


def reexecute_lost(machine, rank: int, frame, entries: dict) -> None:
    """Recovery hook: re-run the ledger entries ``reconcile_failure``
    popped for a dead destination, on the surviving spawner ``rank``."""
    machine.stats.incr("spawn.recovered", len(entries))
    for spawn_id, (_dst, fn, args, name) in entries.items():
        _run_local(machine, rank, frame, fn, args, spawn_id, name)
