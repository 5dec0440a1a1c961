"""Span tracing of the runtime's layer boundaries, installed from outside.

Nothing in ``src/repro`` knows about this file.  :func:`install` replaces
the functions listed in :data:`TARGETS` — at every module that holds a
reference to them, not only the defining one — with wrappers that push a
span on entry and pop it on exit.  A span records its layer, name, start,
end and the span that was open when it started; per layer the tracer keeps
``calls``, ``incl_s`` (time with the layer anywhere on the stack, nested
same-layer spans counted once) and ``self_s`` (span time minus the time of
its child spans), so self times of all layers add up to the traced
interval.

Generator entry points (``finish_end``, ``cofence``, ``event_wait``, the
collectives, shipped functions, kernels) are timed per resumed slice: the
span closes when the generator yields to the scheduler and a new one
opens when it is resumed, so time spent suspended is never booked as busy.

AM handlers are wrapped where they enter the system, in
``AMLayer.register`` / ``ensure_registered``, and attributed by handler
name prefix (:data:`HANDLER_LAYERS`).  Kernels and shipped functions are
wrapped where the runtime first calls them (``Machine.launch``, the
``spawn.exec`` handler) and attributed to ``apps``.

Targets marked optional are private callbacks the engine invokes (message
delivery, retransmit timers, heartbeat tasks); wrapping them keeps that
time out of ``sim.self_s``.  If a later change renames one it is skipped
and listed in ``Tracer.unpatched``; a missing required target is an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

#: every layer a span can belong to, in report order
LAYERS = (
    "sim", "net.am", "net.transport", "core.spawn", "core.copy",
    "core.cofence", "core.finish", "core.coll", "runtime.event",
    "runtime.failure", "runtime.machine", "backend.wire",
    "backend.transport", "backend.sched", "apps",
)

#: (layer, module, dotted attribute, required)
TARGETS = (
    ("sim", "repro.sim.engine", "Simulator.run", True),
    ("net.am", "repro.net.active_messages", "AMLayer.request_nb", True),
    ("net.am", "repro.net.active_messages", "AMLayer.request", True),
    ("net.am", "repro.net.active_messages", "AMLayer._on_deliver", False),
    ("net.transport", "repro.net.transport", "Network.send", True),
    ("net.transport", "repro.net.transport", "Network._run_delivery_batch",
     False),
    ("net.transport", "repro.net.transport", "Network._retransmit", False),
    ("core.spawn", "repro.core.spawn", "spawn", True),
    ("core.copy", "repro.core.copy_async", "copy_async", True),
    ("core.cofence", "repro.core.cofence", "cofence", True),
    ("core.finish", "repro.core.finish", "finish_begin", True),
    ("core.finish", "repro.core.finish", "finish_end", True),
    ("core.finish", "repro.core.finish", "frame_at", True),
    ("core.finish", "repro.core.finish", "count_send", True),
    ("core.finish", "repro.core.finish", "count_delivered", True),
    ("core.finish", "repro.core.finish", "count_received", True),
    ("core.finish", "repro.core.finish", "count_completed", True),
    ("core.finish", "repro.core.finish", "count_send_failed", True),
    ("core.finish", "repro.core.finish", "count_delivery_outcome", True),
    *(("core.coll", "repro.core.collectives", name, True) for name in (
        "allreduce", "reduce", "barrier", "broadcast", "gather",
        "allgather", "scan", "scatter", "alltoall", "sort")),
    *(("core.coll", "repro.core.collectives_async", name, True) for name in (
        "broadcast_async", "reduce_async", "allreduce_async",
        "barrier_async", "gather_async", "scatter_async",
        "allgather_async", "alltoall_async", "scan_async", "sort_async")),
    ("core.coll", "repro.core.collectives_algos", "ring_allreduce", True),
    ("core.coll", "repro.core.collectives_algos", "pipelined_broadcast",
     True),
    ("runtime.event", "repro.runtime.image", "Image.event_notify", True),
    ("runtime.event", "repro.runtime.image", "Image.event_wait", True),
    ("runtime.failure", "repro.runtime.failure", "FailureService.start",
     True),
    ("runtime.failure", "repro.runtime.failure", "FailureService.check_stop",
     True),
    ("runtime.failure", "repro.runtime.failure", "FailureService._detector",
     False),
    ("runtime.failure", "repro.runtime.failure",
     "FailureService._on_delivery", False),
    ("backend.wire", "repro.backend.wire", "load_frame", True),
    ("backend.transport", "repro.backend.transport", "ProcessTransport.send",
     True),
    ("backend.transport", "repro.backend.transport",
     "ProcessTransport.deliver_frame", True),
    ("backend.sched", "repro.backend.realtime", "RealtimeScheduler.run",
     True),
)

#: AM handler name prefix -> layer (unlisted handlers stay unwrapped)
HANDLER_LAYERS = (
    ("spawn.", "core.spawn"), ("copy.", "core.copy"),
    ("coll.", "core.coll"), ("acoll.", "core.coll"),
    ("algcoll.", "core.coll"), ("ft.", "core.finish"),
    ("term.", "core.finish"), ("event.", "runtime.event"),
    ("fail.", "runtime.failure"),
)

#: raw spans kept per workload for the trace file
SAMPLE_CAP = 10_000

#: packages whose modules may hold a by-name import of a target
_PATCHED_PACKAGES = ("repro", "benchmarks.e2e")


class Tracer:
    """Span stack, per-layer aggregate and a bounded raw-span sample."""

    def __init__(self) -> None:
        #: layer -> [calls, incl_s, self_s]
        self.agg = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        #: open spans, innermost last: [layer, name, start, child_s, id, parent]
        self.stack: list[list] = []
        #: layer -> number of open spans of that layer
        self.active = dict.fromkeys(LAYERS, 0)
        #: (id, parent id, layer, name, start, end)
        self.sample: list[tuple] = []
        self.next_id = 0
        #: bytes produced by dump_frame (for backend.wire.bytes_per_frame)
        self.wire_bytes = 0
        #: Machine() entry and Machine.launch exit of the latest build
        self.build_t0 = 0.0
        self.build_t1 = 0.0
        #: the latest process-backend run and its workers' ``snapshot()``s
        self.process_run = None
        self.worker_snapshots: list[dict] = []
        self.unpatched: list[str] = []
        self._pid = os.getpid()
        self._undo: list[tuple] = []
        self._traced_fns: dict = {}

    # -- spans ----------------------------------------------------------- #

    def enter(self, layer: str, name: str) -> None:
        stack = self.stack
        self.next_id = sid = self.next_id + 1
        self.active[layer] += 1
        stack.append([layer, name, 0.0, 0.0, sid,
                      stack[-1][4] if stack else 0])
        stack[-1][2] = perf_counter()

    def exit(self) -> None:
        end = perf_counter()
        layer, name, start, child, sid, parent = self.stack.pop()
        dt = end - start
        totals = self.agg[layer]
        totals[2] += dt - child
        self.active[layer] -= 1
        if not self.active[layer]:
            totals[1] += dt
        if self.stack:
            self.stack[-1][3] += dt
        if len(self.sample) < SAMPLE_CAP:
            self.sample.append((sid, parent, layer, name, start, end))

    def begin(self, name: str) -> None:
        """Start a traced interval: clear the aggregate and open the root
        span, whose self time is the ``apps`` time outside any kernel."""
        for totals in self.agg.values():
            totals[:] = [0, 0.0, 0.0]
        self.wire_bytes = 0
        self.worker_snapshots = []
        del self.stack[:]
        self.active = dict.fromkeys(LAYERS, 0)
        self.enter("apps", name)

    def end(self) -> dict:
        """Close the root span; returns ``snapshot()`` of the interval,
        with the snapshots process workers sent home under ``workers``."""
        self.exit()
        return dict(self.snapshot(), workers=self.worker_snapshots)

    def snapshot(self) -> dict:
        """The aggregate so far as plain data.  Spans still open (a worker
        asked from inside its run loop) are charged up to now."""
        agg = {layer: list(totals) for layer, totals in self.agg.items()}
        now = perf_counter()
        active = dict(self.active)
        inner = 0.0
        for layer, _name, start, child, _sid, _parent in reversed(self.stack):
            dt = now - start
            agg[layer][2] += dt - child - inner
            active[layer] -= 1
            if not active[layer]:
                agg[layer][1] += dt
            inner = dt
        return {"layers": agg, "wire_bytes": self.wire_bytes,
                "build_s": max(0.0, self.build_t1 - self.build_t0)}

    # -- wrappers -------------------------------------------------------- #

    def wrap(self, layer: str, fn, name: str = ""):
        """A traced stand-in for ``fn`` (plain or generator function)."""
        name = name or getattr(fn, "__qualname__", repr(fn))
        totals = self.agg[layer]
        enter, leave = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                totals[0] += 1
                gen = fn(*args, **kwargs)
                value = exc = None
                while True:
                    enter(layer, name)
                    try:
                        item = (gen.send(value) if exc is None
                                else gen.throw(exc))
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()
                    try:
                        value = yield item
                        exc = None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # noqa: BLE001 - relayed
                        exc = thrown
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                totals[0] += 1
                enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        return traced

    def wrap_app(self, fn):
        """``fn`` traced as application code, one wrapper per function."""
        traced = self._traced_fns.get(fn)
        if traced is None:
            traced = self._traced_fns[fn] = self.wrap("apps", fn)
        return traced

    def wrap_handler(self, name: str, fn):
        """An AM handler traced under the layer its name belongs to."""
        for prefix, layer in HANDLER_LAYERS:
            if name.startswith(prefix):
                break
        else:
            return fn
        if name == "spawn.exec":
            # The shipped function arrives as the first handler argument;
            # swap in its traced twin so its body is booked to ``apps``
            # and only the bookkeeping around it to ``core.spawn``.
            handler, wrap_app = fn, self.wrap_app

            def exec_handler(ctx, shipped, *rest, **kwargs):
                if inspect.isgeneratorfunction(shipped):
                    shipped = wrap_app(shipped)
                return (yield from handler(ctx, shipped, *rest, **kwargs))

            fn = functools.wraps(handler)(exec_handler)
        return self.wrap(layer, fn, name=f"handler:{name}")

    # -- installation ---------------------------------------------------- #

    def _replace_everywhere(self, module, path: str, make) -> bool:
        """Replace ``module.path`` by ``make(original)`` at every binding
        site: the owner (module or class) and each loaded ``repro`` module
        that imported the function by name."""
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        replacement = make(original)
        sites = [(owner, attr)]
        if not parents:
            for name, mod in list(sys.modules.items()):
                if mod is module or not name.startswith(_PATCHED_PACKAGES):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key))
        for site, key in sites:
            self._undo.append((site, key, getattr(site, key)))
            setattr(site, key, replacement)
        return True

    def install(self) -> None:
        """Patch every target.  Call before the first ``Machine`` is built
        (handlers are wrapped as they register)."""
        for _layer, modname, _path, _required in TARGETS:
            importlib.import_module(modname)
        import repro.apps  # noqa: F401 - binding sites of run_spmd et al.
        import repro.backend.parallel as parallel
        import repro.backend.wire as wire
        import repro.net.active_messages as am_mod
        import repro.runtime.program as program

        for layer, modname, path, required in TARGETS:
            ok = self._replace_everywhere(
                sys.modules[modname], path,
                lambda fn, layer=layer: self.wrap(layer, fn))
            if not ok:
                if required:
                    raise RuntimeError(
                        f"trace target {modname}:{path} not found — the "
                        "layer boundary moved; update benchmarks/e2e/trace.py")
                self.unpatched.append(f"{modname}:{path}")

        tracer = self

        def counting_dump(fn):
            traced = self.wrap("backend.wire", fn)

            @functools.wraps(fn)
            def dump_frame(*args, **kwargs):
                blob = traced(*args, **kwargs)
                tracer.wire_bytes += len(blob)
                return blob
            return dump_frame

        def handler_hook(fn):
            @functools.wraps(fn)
            def register(am, name, handler):
                # spawn and copy_async re-register on every call; only a
                # name the layer does not know yet needs a wrapper
                if name not in getattr(am, "_handlers", ()):
                    handler = tracer.wrap_handler(name, handler)
                return fn(am, name, handler)
            return register

        def machine_init(fn):
            traced = self.wrap("runtime.machine", fn)

            @functools.wraps(fn)
            def __init__(machine, *args, **kwargs):
                if os.getpid() != tracer._pid:
                    # A forked worker: drop the spans inherited from the
                    # coordinator, this process's trace starts here.
                    tracer._pid = os.getpid()
                    tracer.begin("worker")
                tracer.build_t0 = perf_counter()
                traced(machine, *args, **kwargs)
            return __init__

        def machine_launch(fn):
            def launch(machine, kernel, args=()):
                tasks = fn(machine, tracer.wrap_app(kernel), args=args)
                tracer.build_t1 = perf_counter()
                return tasks
            return self.wrap("runtime.machine", functools.wraps(fn)(launch))

        def traced_setup(fn, worker_extras: bool):
            """run_spmd / run_spmd_process with ``setup`` booked to
            ``runtime.machine``; process workers also ship their
            aggregate home next to the ``finalize`` value."""
            @functools.wraps(fn)
            def run(*args, **kwargs):
                setup = kwargs.get("setup")
                if setup is not None:
                    kwargs["setup"] = self.wrap("runtime.machine", setup)
                if not worker_extras:
                    return fn(*args, **kwargs)
                finalize = kwargs.get("finalize")

                def traced_finalize(machine, rank):
                    extra = (finalize(machine, rank)
                             if finalize is not None else None)
                    return extra, tracer.snapshot()

                kwargs["finalize"] = traced_finalize
                result, values = fn(*args, **kwargs)
                pairs = [e if e is not None else (None, None)
                         for e in result.extras]
                result.extras = [extra for extra, _snap in pairs]
                tracer.process_run = result
                tracer.worker_snapshots = [snap for _e, snap in pairs
                                           if snap is not None]
                return result, values
            return run

        patches = (
            (wire, "dump_frame", counting_dump),
            (am_mod, "AMLayer.register", handler_hook),
            (am_mod, "AMLayer.ensure_registered", handler_hook),
            (program, "Machine.__init__", machine_init),
            (program, "Machine.launch", machine_launch),
            (program, "run_spmd", lambda fn: traced_setup(fn, False)),
            (parallel, "run_spmd_process", lambda fn: traced_setup(fn, True)),
        )
        for module, path, make in patches:
            if not self._replace_everywhere(module, path, make):
                raise RuntimeError(
                    f"trace target {module.__name__}:{path} not found")

    def uninstall(self) -> None:
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)
