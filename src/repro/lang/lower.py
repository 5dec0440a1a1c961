"""Lower CAF 2.0 surface programs onto the runtime, once, before launch.

The paper's compiler translates Fortran source into runtime calls; so
does this module.  :func:`compile_program` walks the AST once and emits
Python source for one generator function per program unit — the main
program and each function/subroutine — then compiles it.  The main
program is an ordinary SPMD kernel and the functions are ordinary
shipped generator functions: :func:`run_program` is
``compile_program`` plus one :func:`~repro.runtime.program.run_spmd`,
and anything ``run_spmd`` takes (``racecheck``, ``faults``,
``schedule``) applies to a listing as to any other kernel.

Names are resolved while lowering: program-level coarrays, events and
locks, a unit's locals and its parameters.  Only parameters keep a
run-time check, because an argument may arrive as a by-reference
coarray section (§II-C.2) or a whole coarray.  What the text alone
shows to be wrong raises :class:`CafError` with its line before any
image runs: an undeclared name, an unknown function, a wrong argument
count, an event or lock without a co-dimension, a co-index on a
non-coarray.

Semantics notes
---------------
- Arrays are 1-based with inclusive slices, Fortran-style; image ranks
  are 0-based, matching CAF 2.0 team ranks (``this_image()`` of the
  first image is 0).
- ``name(1)[p]`` reads/writes image p's section with blocking one-sided
  get/put; ``copy_async`` is the asynchronous path.
- ``copy_async(dest, src, ...)`` takes up to three optional events:
  one event means the *destination* (delivery) event; two mean
  ``(src_event, dest_event)``; three mean ``(pre, src, dest)`` as in
  the paper's full signature.
- Spawn arguments follow §II-C.2: ``a[p]`` (a coarray section), a bare
  coarray and an event travel by reference, plain values are copied.
- Functions/subroutines see the program's coarrays, events and locks
  but not the caller's locals (no closures), and may be shipped with
  ``spawn`` or invoked locally with ``call``.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.lang import ast_nodes as A
from repro.lang.parser import parse
from repro.runtime.coarray import Coarray, CoarrayRef
from repro.runtime.event import EventRef, EventVar
from repro.runtime.program import run_spmd
from repro.runtime.team import Team


class CafError(RuntimeError):
    """A semantic error in a surface program: raised with its line by
    :func:`compile_program`, or by a running image for what only a run
    can show (an index out of bounds, a co-index out of range)."""


_DTYPES = {"integer": "int64", "real": "float64", "logical": "bool_"}

#: what a name denotes inside one program unit
_COARRAY, _EVENT, _LOCK = "coarray", "event", "lock"    # program level
_SCALAR, _ARRAY, _TEAM, _PARAM = "scalar", "array", "team", "param"

#: how a unit binds the program-level objects it names
_BY_NAME = {_COARRAY: "coarray_by_name", _EVENT: "event_by_name",
            _LOCK: "lock_by_name"}

#: an integer/real/logical scalar keeps its type across assignments
_COERCE = {"integer": "np.int64(int({}))", "real": "np.float64({})",
           "logical": "np.bool_(bool({}))"}


class _Sym(NamedTuple):
    kind: str
    type_name: Optional[str] = None
    extent: Optional[int] = None     # a coarray's section length


class _Builtin(NamedTuple):
    template: str           # a Python call over the lowered args {0}, {1}…
    required: int = 0
    defaults: tuple = ()    # source text of omitted trailing arguments
    blocks: bool = False    # may block: lowered as ``yield from``
    value: bool = True      # False: a subroutine, invoked with ``call``
    event: bool = False     # the first argument is an event (``e[p]`` ok)
    variadic: bool = False  # every argument joins into {0}


_OP, _ROOT_OP = ("'sum'",), ("0", "'sum'")

#: builtin name -> its call template onto the Image API or an intrinsic
_BUILTINS = {
    "this_image": _Builtin("img.rank"),
    "num_images": _Builtin("img.nimages"),
    "random_image": _Builtin("_random_image(img)"),
    "random_int": _Builtin(
        "int(img.rng.integers(int({0}), int({1}) + 1))", 2),
    "mod": _Builtin("({0} % {1})", 2),
    "abs": _Builtin("abs({0})", 1),
    "min": _Builtin("min(({0},))", 1, variadic=True),
    "max": _Builtin("max(({0},))", 1, variadic=True),
    "size": _Builtin("int(np.size({0}))", 1),
    "sum": _Builtin("np.asarray({0}).sum()", 1),
    "int": _Builtin("int({0})", 1),
    "real": _Builtin("float({0})", 1),
    "event_wait": _Builtin("img.event_wait({0}, count=int({1}))", 1,
                           ("1",), blocks=True, value=False, event=True),
    "event_notify": _Builtin("img.event_notify({0}, count=int({1}))", 1,
                             ("1",), blocks=True, value=False, event=True),
    "team_barrier": _Builtin("img.barrier()", blocks=True, value=False),
    "barrier": _Builtin("img.barrier()", blocks=True, value=False),
    "lock": _Builtin("({0}).acquire(img, int({1}))", 1, ("img.rank",),
                     blocks=True, value=False),
    "unlock": _Builtin("({0}).release(img, int({1}))", 1, ("img.rank",),
                       value=False),
    "compute": _Builtin("img.compute(float({0}))", 1, blocks=True,
                        value=False),
    "allreduce": _Builtin("img.allreduce(_py({0}), op={1})", 1, _OP,
                          blocks=True),
    "team_reduce": _Builtin("img.reduce(_py({0}), root=int({1}), op={2})",
                            1, _ROOT_OP, blocks=True),
    "team_broadcast": _Builtin("img.broadcast(_py({0}), root=int({1}))", 1,
                               ("0",), blocks=True),
    "team_gather": _Builtin("img.gather(_py({0}), root=int({1}))", 1,
                            ("0",), blocks=True),
    "team_allgather": _Builtin("img.allgather(_py({0}))", 1, blocks=True),
    "team_scan": _Builtin("img.scan(_py({0}), op={1})", 1, _OP,
                          blocks=True),
    "world": _Builtin("img.team_world"),
    "team_split": _Builtin("img.team_split({0}, int({1}), int({2}))", 3,
                           blocks=True),
    "team_size": _Builtin("({0}).size", 1),
    "team_rank": _Builtin("({0}).rank_of(img.rank)", 1),
    "barrier_on": _Builtin("img.barrier(team={0})", 1, blocks=True,
                           value=False),
    "allreduce_on": _Builtin("img.allreduce(team={0}, value=_py({1}), "
                             "op={2})", 2, _OP, blocks=True),
    "broadcast_on": _Builtin("img.broadcast(team={0}, value=_py({1}), "
                             "root=int({2}))", 2, ("0",), blocks=True),
}


# --------------------------------------------------------------------- #
# What lowered code calls (beyond the Image API itself)
# --------------------------------------------------------------------- #

def _rank(img, rank) -> int:
    """A co-index, checked against the number of images."""
    rank = int(rank)
    if not 0 <= rank < img.nimages:
        raise CafError(
            f"image index {rank} out of range [0, {img.nimages})")
    return rank


def _index(sel, extent: int):
    """A 1-based Fortran selector (an element, an inclusive
    ``slice(lo, hi)``, or None for the whole) as a numpy index."""
    if sel is None:
        return slice(None)
    if isinstance(sel, slice):
        lo = 1 if sel.start is None else int(sel.start)
        hi = extent if sel.stop is None else int(sel.stop)
        _check(lo, extent)
        _check(hi, extent)
        return slice(lo - 1, hi)
    i = int(sel)
    _check(i, extent)
    return i - 1


def _check(i: int, extent: int) -> None:
    if not 1 <= i <= extent:
        raise CafError(f"index {i} out of bounds for extent {extent} "
                       "(arrays are 1-based)")


def _scalarize(value):
    arr = np.asarray(value)
    return arr[()] if arr.ndim == 0 else arr


def _read(img, co, index):
    """A load from my own section of a coarray (race-detector visible)."""
    img._rc_access(CoarrayRef(co, img.rank, index), write=False)
    return _scalarize(co.local_at(img.rank)[index])


def _write(img, value, co, index) -> None:
    img._rc_access(CoarrayRef(co, img.rank, index), write=True)
    co.local_at(img.rank)[index] = value


def _load(img, co, rank, index):
    """``co(index)[rank]``: a load when the section is mine, else a
    blocking get."""
    if rank == img.rank:
        return _read(img, co, index)
    return _scalarize((yield from img.get(CoarrayRef(co, rank, index))))


def _store(img, value, co, rank, index):
    if rank == img.rank:
        _write(img, value, co, index)
    else:
        yield from img.put(CoarrayRef(co, rank, index), value)


def _view(arr, index):
    """A local array section as a copy_async endpoint (an element is a
    one-element section)."""
    return arr[index if isinstance(index, slice) else
               slice(index, index + 1)]


def _div(a, b):
    """Fortran ``/``: two integers divide to an integer, truncating."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        q, r = divmod(int(a), int(b))
        return q + 1 if r and q < 0 else q
    return a / b


def _py(value):
    """numpy scalars confuse user-supplied reduce ops; normalize."""
    return value.item() if isinstance(value, np.generic) else value


def _random_image(img) -> int:
    """A uniformly random image other than this one (steal-victim
    selection; deterministic per machine seed)."""
    if img.nimages == 1:
        return 0
    victim = int(img.rng.integers(0, img.nimages - 1))
    return victim if victim < img.rank else victim + 1


def _do(start, stop, step):
    """``do v = start, stop, step``: what ``v`` holds on entry (the
    start, even when no iteration runs) and its iteration values."""
    start, stop, step = int(start), int(stop), int(step)
    if step == 0:
        raise CafError("do-loop step must be nonzero")
    last = stop + (1 if step > 0 else -1)
    return np.int64(start), map(np.int64, range(start, last, step))


def _team(value):
    if not isinstance(value, Team):
        raise CafError("finish(...) expects a team value")
    return value


def _print(img, *values) -> None:
    line = (f"[img {img.rank} @ {img.now * 1e6:.2f}us] "
            + " ".join(map(str, values)))
    scratch = img.machine.scratch
    scratch.setdefault("lang.prints", []).append(line)
    if not scratch.get("lang.capture"):
        print(line)


# -- parameters: what the argument is decides at run time -------------- #

def _deref(img, value):
    """Read a parameter; a by-reference section reads through."""
    if isinstance(value, Coarray):
        return _read(img, value, slice(None))
    if isinstance(value, CoarrayRef):
        if value.world_rank == img.rank:
            img._rc_access(value, write=False)
            return _scalarize(value.read())
        return _scalarize((yield from img.get(value)))
    return value


def _assign(img, current, value):
    """Assign to a parameter; returns its new binding.  A by-reference
    section writes through."""
    if isinstance(current, Coarray):
        _write(img, value, current, slice(None))
    elif isinstance(current, CoarrayRef):
        if current.world_rank == img.rank:
            img._rc_access(current, write=True)
            current.write(value)
        else:
            yield from img.put(current, value)
    elif isinstance(current, np.ndarray):
        current[:] = value
    elif isinstance(current, np.integer):
        return np.int64(int(value))
    elif isinstance(current, np.floating):
        return np.float64(value)
    elif isinstance(current, np.bool_):
        return np.bool_(bool(value))
    else:
        return value
    return current


def _pass(img, value):
    """A parameter passed on: coarrays and events stay references."""
    if isinstance(value, (Coarray, EventVar)):
        return value
    return (yield from _deref(img, value))


def _at(img, obj, rank, sel):
    """Where ``param(sel)[rank]`` points: ``(coarray, rank, index)``,
    or ``(array, None, index)`` for a plain array."""
    if isinstance(obj, Coarray):
        return (obj, img.rank if rank is None else rank,
                _index(sel, len(obj.local_at(img.rank))))
    if isinstance(obj, EventVar):
        raise CafError("an event cannot be read; use event_wait")
    if rank is not None:
        raise CafError("the argument is not a coarray; it has no "
                       "co-dimension")
    return obj, None, _index(sel, len(obj))


def _p_load(img, obj, rank, sel):
    target, rank, index = _at(img, obj, rank, sel)
    if rank is None:
        return _scalarize(np.asarray(target)[index])
    return (yield from _load(img, target, rank, index))


def _p_store(img, value, obj, rank, sel):
    target, rank, index = _at(img, obj, rank, sel)
    if rank is None:
        target[index] = value
    else:
        yield from _store(img, value, target, rank, index)


def _p_loc(img, obj, rank, sel):
    """A parameter as a copy_async endpoint."""
    target, rank, index = _at(img, obj, rank, sel)
    if rank is None:
        return _view(target, index)
    return CoarrayRef(target, rank, index)


def _p_ref(img, obj, rank, sel):
    """``param(sel)[rank]`` as a spawn argument: a co-indexed coarray
    section or event travels by reference."""
    if isinstance(obj, Coarray) and rank is not None:
        return _p_loc(img, obj, rank, sel)
    if isinstance(obj, EventVar):
        return _p_event(obj, rank)
    return (yield from _p_load(img, obj, rank, sel))


def _p_event(obj, rank):
    if rank is None and isinstance(obj, (EventVar, EventRef)):
        return obj
    if rank is not None and isinstance(obj, EventVar):
        return obj.ref_for(rank)
    raise CafError("expected an event or event[image]")


_RUNTIME = {f.__name__: f for f in (
    _rank, _index, _read, _write, _load, _store, _view, _div, _py,
    _random_image, _do, _team, _print, _deref, _assign, _pass, _p_load,
    _p_store, _p_loc, _p_ref, _p_event)}


# --------------------------------------------------------------------- #
# The lowering pass
# --------------------------------------------------------------------- #

def _v(name: str) -> str:
    return f"v_{name}"


def _f(name: str) -> str:
    return f"f_{name}"


def _literal(value) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


def _walk(stmts):
    for stmt in stmts:
        yield stmt
        for body in ("then_body", "else_body", "body"):
            yield from _walk(getattr(stmt, body, ()))


class _Unit:
    """Lowers one program unit to the source of one generator function."""

    def __init__(self, program: A.Program, shared: dict):
        self.program = program
        self.shared = shared
        self.lines: list[str] = []
        self.depth = 1
        self.loops = 0
        #: loop depth at which each enclosing finish block opened
        self.finishes: list[int] = []
        self.line = 0
        self.blocks = False
        self.used: dict[str, str] = {}  # program-level names it touches

    def fail(self, message: str):
        raise CafError(f"line {self.line}: {message}")

    # -- units and names ------------------------------------------------- #

    def lower(self, pyname: str, params: tuple, body: tuple) -> str:
        self.names = self.scope(params, body)
        self.statements(body)
        head = [f"def {pyname}({', '.join(['img', *map(_v, params)])}):"]
        head += [f"    {_v(n)} = img.machine.{_BY_NAME[kind]}({n!r})"
                 for n, kind in self.used.items()]
        if not self.blocks:
            self.lines += ["    return", "    yield  # still a generator"]
        return "\n".join(head + self.lines)

    def scope(self, params: tuple, body: tuple) -> dict:
        """The unit's own names: parameters, declared locals, and loop
        variables used undeclared (integers)."""
        names = {}
        for name in params:
            if name in names:
                self.fail(f"parameter {name!r} appears twice")
            names[name] = _Sym(_PARAM)
        for stmt in _walk(body):
            self.line = stmt.line
            if not isinstance(stmt, A.Decl):
                continue
            if stmt.codimension:
                if stmt.name not in self.shared:
                    self.fail(f"coarray {stmt.name!r} must be declared at "
                              "program level (allocation is a team "
                              "activity)")
                continue
            if stmt.type_name in ("event", "lock"):
                self.fail(f"{stmt.type_name}s must be declared with a "
                          "co-dimension ([*]) — they coordinate between "
                          "images")
            if stmt.name in names:
                self.fail(f"{stmt.name!r} is declared twice")
            kind = (_TEAM if stmt.type_name == "team" else
                    _SCALAR if stmt.shape is None else _ARRAY)
            names[stmt.name] = _Sym(kind, stmt.type_name)
        for stmt in _walk(body):
            self.line = stmt.line
            if isinstance(stmt, A.Do) and stmt.var not in names:
                if stmt.var in self.shared:
                    self.fail(f"loop variable {stmt.var!r} is a "
                              f"{self.shared[stmt.var].kind}")
                names[stmt.var] = _Sym(_SCALAR, "integer")
        return names

    def lookup(self, name: str) -> Optional[_Sym]:
        sym = self.names.get(name)
        if sym is None:
            sym = self.shared.get(name)
            if sym is not None:
                self.used.setdefault(name, sym.kind)
        return sym

    def resolve(self, name: str) -> _Sym:
        sym = self.lookup(name)
        if sym is None:
            self.fail(f"name {name!r} is not declared")
        return sym

    def function(self, name: str, nargs: int, how: str) -> str:
        fn = self.program.functions.get(name)
        if fn is None:
            self.fail(f"{how} of unknown function {name!r}")
        if len(fn.params) != nargs:
            self.fail(f"{name} takes {len(fn.params)} argument(s), {how} "
                      f"passed {nargs}")
        return _f(name)

    # -- statements ------------------------------------------------------ #

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def wait(self, call: str, statement: bool = False) -> str:
        """``call`` may block: ``yield from`` it."""
        self.blocks = True
        return f"yield from {call}" if statement else f"(yield from {call})"

    def statements(self, stmts) -> None:
        for stmt in stmts:
            self.line = stmt.line
            self.stmt(stmt)

    def block(self, stmts) -> None:
        start = len(self.lines)
        self.statements(stmts)
        if len(self.lines) == start:
            self.emit("pass")

    def nested(self, head: str, stmts) -> None:
        self.emit(head)
        self.depth += 1
        self.block(stmts)
        self.depth -= 1

    def stmt(self, s) -> None:
        match s:
            case A.Decl():
                self.declare(s)
            case A.Assign():
                self.assign(s.target, self.expr(s.value))
            case A.CallStmt(call=call):
                self.emit(self.call(call, statement=True))
            case A.If():
                self.nested(f"if {self.expr(s.condition)}:", s.then_body)
                orelse = s.else_body
                while len(orelse) == 1 and isinstance(orelse[0], A.If):
                    s = orelse[0]  # `else if`
                    self.line = s.line
                    self.nested(f"elif {self.expr(s.condition)}:",
                                s.then_body)
                    orelse = s.else_body
                if orelse:
                    self.nested("else:", orelse)
            case A.Do():
                var = _v(s.var)
                step = "1" if s.step is None else self.expr(s.step)
                self.emit(f"{var}, _loop = _do({self.expr(s.start)}, "
                          f"{self.expr(s.stop)}, {step})")
                self.loop(f"for {var} in _loop:", s.body)
            case A.DoWhile():
                self.loop(f"while {self.expr(s.condition)}:", s.body)
            case A.Exit() | A.Cycle():
                if not self.loops:
                    self.fail(f"{type(s).__name__.lower()} outside a do "
                              "loop")
                self.end_finishes(self.finishes.count(self.loops))
                self.emit("break" if isinstance(s, A.Exit) else "continue")
            case A.Return(value=None):
                self.end_finishes(len(self.finishes))
                self.emit("return")
            case A.Return(value=value) if self.finishes:
                self.emit(f"_result = {self.expr(value)}")
                self.end_finishes(len(self.finishes))
                self.emit("return _result")
            case A.Return(value=value):
                self.emit(f"return {self.expr(value)}")
            case A.Finish():
                # Leaving the block any way but by an error ends it; an
                # error leaves at once, so a failed image fails now
                # rather than wait on a termination it will not reach.
                team = ("" if s.team is None else
                        f"team=_team({self.expr(s.team)})")
                self.emit(self.wait(f"img.finish_begin({team})", True))
                self.finishes.append(self.loops)
                self.statements(s.body)
                self.finishes.pop()
                self.end_finishes(1)
            case A.Cofence():
                kwargs = [f"{k}={v!r}" for k, v in
                          (("downward", s.downward), ("upward", s.upward))
                          if v is not None]
                for v in (s.downward, s.upward):
                    if v not in (None, "read", "write", "any"):
                        self.fail("cofence direction must be "
                                  f"READ/WRITE/ANY, got {v!r}")
                self.emit(self.wait(f"img.cofence({', '.join(kwargs)})",
                                    True))
            case A.CopyAsync():
                args = [self.location(s.dest, "dest"),
                        self.location(s.src, "src")]
                keys = ("pre_event", "src_event", "dest_event")
                args += [f"{key}={self.event(e)}" for key, e in
                         zip(keys[3 - len(s.events):], s.events)]
                self.emit(f"img.copy_async({', '.join(args)})")
            case A.Spawn():
                fn = self.function(s.function, len(s.args), "spawn")
                args = [fn, f"int({self.expr(s.image)})"]
                args += [self.argument(a) for a in s.args]
                if s.event is not None:
                    args.append(f"event={self.event(s.event)}")
                self.emit(self.wait(f"img.spawn({', '.join(args)})", True))
            case A.Print():
                values = [self.expr(v) for v in s.values]
                self.emit(f"_print({', '.join(['img', *values])})")

    def end_finishes(self, count: int) -> None:
        for _ in range(count):
            self.emit(self.wait("img.finish_end()", True))

    def loop(self, head: str, body) -> None:
        self.loops += 1
        self.nested(head, body)
        self.loops -= 1

    def declare(self, d: A.Decl) -> None:
        if d.codimension:
            return  # allocated before launch (CompiledProgram.allocate)
        if d.type_name == "team":
            self.emit(f"{_v(d.name)} = img.team_world")  # §II-A
        elif d.shape is None:
            self.emit(f"{_v(d.name)} = np.{_DTYPES[d.type_name]}(0)")
        else:
            self.emit(f"{_v(d.name)} = np.zeros(int({self.expr(d.shape)}), "
                      f"dtype=np.{_DTYPES[d.type_name]})")

    def assign(self, target, value: str) -> None:
        """``target = value``; ``value`` is evaluated first."""
        if isinstance(target, A.Var):
            v = _v(target.name)
            sym = self.lookup(target.name)
            if sym is None:
                self.fail(f"assignment to undeclared name {target.name!r}")
            if sym.kind == _PARAM:
                self.emit(f"{v} = " + self.wait(f"_assign(img, {v}, {value})",
                                                True))
            elif sym.kind == _COARRAY:
                self.emit(f"_write(img, {value}, {v}, slice(None))")
            elif sym.kind == _ARRAY:
                self.emit(f"{v}[:] = {value}")
            elif sym.kind == _SCALAR:
                self.emit(f"{v} = " + _COERCE[sym.type_name].format(value))
            elif sym.kind == _TEAM:
                self.emit(f"{v} = {value}")
            else:
                self.fail(f"cannot assign to {sym.kind} {target.name!r}")
            return
        v, sym = _v(target.base.name), self.resolve(target.base.name)
        rank, index = self.place(target, sym)
        if sym.kind == _ARRAY:
            self.emit(f"{v}[{index}] = {value}")
        elif sym.kind == _PARAM:
            self.emit(self.wait(f"_p_store(img, {value}, {v}, {rank}, "
                                f"{index})", True))
        elif rank == "None":
            self.emit(f"_write(img, {value}, {v}, {index})")
        else:
            self.emit(self.wait(f"_store(img, {value}, {v}, {rank}, "
                                f"{index})", True))

    # -- expressions ----------------------------------------------------- #

    def expr(self, e) -> str:
        match e:
            case A.Num(value=value) | A.Str(value=value) | \
                    A.Bool(value=value):
                return _literal(value)
            case A.Var(name=name):
                sym = self.resolve(name)
                if sym.kind == _PARAM:
                    return self.wait(f"_deref(img, {_v(name)})")
                if sym.kind == _COARRAY:
                    return f"_read(img, {_v(name)}, slice(None))"
                return _v(name)
            case A.UnaryOp(op="not", operand=x):
                return f"(not {self.expr(x)})"
            case A.UnaryOp(operand=x):
                return f"(-{self.expr(x)})"
            case A.BinOp(op="and" | "or" as op, left=l, right=r):
                # short-circuit, and a plain bool either way
                return f"(bool({self.expr(l)}) {op} bool({self.expr(r)}))"
            case A.BinOp(op="/", left=l, right=r):
                return f"_div({self.expr(l)}, {self.expr(r)})"
            case A.BinOp(op=op, left=l, right=r):
                op = "!=" if op == "/=" else op
                return f"({self.expr(l)} {op} {self.expr(r)})"
            case A.Call():
                return self.call(e, statement=False)
            case A.Index():
                return self.load(e)
        self.fail(f"cannot evaluate {type(e).__name__}")

    def load(self, e: A.Index) -> str:
        name = e.base.name
        sym = self.lookup(name)
        if sym is None:
            if e.image is None and not isinstance(e.selector, A.Slice):
                # `name(x)` where name is no variable: a one-argument call
                # (the classic Fortran indexing/call ambiguity)
                return self.call(A.Call(name, (e.selector,)),
                                 statement=False)
            self.fail(f"unknown array {name!r}")
        v = _v(name)
        rank, index = self.place(e, sym)
        if sym.kind == _ARRAY:
            return f"{v}[{index}]"
        if sym.kind == _PARAM:
            return self.wait(f"_p_load(img, {v}, {rank}, {index})")
        if rank == "None":
            return f"_read(img, {v}, {index})"
        return self.wait(f"_load(img, {v}, {rank}, {index})")

    def place(self, e: A.Index, sym: _Sym) -> tuple[str, str]:
        """``name(sel)[image]`` of an array, coarray or parameter: its
        co-index ("None": my own) and its numpy index, as source.  A
        parameter's selector stays 1-based: only the run knows the
        argument's extent."""
        name, sel = e.base.name, self.selector(e.selector)
        if sym.kind == _COARRAY:
            return self.rank(e.image), f"_index({sel}, {sym.extent})"
        if sym.kind == _PARAM:
            return self.rank(e.image), sel
        if sym.kind == _ARRAY:
            if e.image is not None:
                self.fail(f"{name!r} is not a coarray; it has no "
                          "co-dimension")
            return "None", f"_index({sel}, len({_v(name)}))"
        if sym.kind == _EVENT:
            self.fail(f"event {name!r} cannot be read; use event_wait")
        self.fail(f"{sym.kind} {name!r} cannot be indexed")

    def rank(self, image) -> str:
        return "None" if image is None else f"_rank(img, {self.expr(image)})"

    def selector(self, sel) -> str:
        if isinstance(sel, A.Slice):
            lo, hi = (("None" if x is None else self.expr(x))
                      for x in (sel.lo, sel.hi))
            return f"slice({lo}, {hi})"
        return "None" if sel is None else self.expr(sel)

    def call(self, call: A.Call, statement: bool) -> str:
        builtin = _BUILTINS.get(call.name.lower())
        if builtin is None:
            if call.name not in self.program.functions:
                self.fail("unknown function or subroutine "
                          f"{call.name!r}")
            if not statement:
                self.fail(f"user function {call.name!r} may only be invoked "
                          "with `call` or `spawn`")
            fn = self.function(call.name, len(call.args), "call")
            args = ", ".join(["img", *map(self.argument, call.args)])
            return self.wait(f"{fn}({args})", True)
        n, most = len(call.args), builtin.required + len(builtin.defaults)
        if n < builtin.required or (n > most and not builtin.variadic):
            self.fail(f"{call.name} takes {builtin.required}"
                      f"{f'-{most}' if most > builtin.required else ''} "
                      f"argument(s), got {n}")
        if not statement and not builtin.value:
            self.fail(f"{call.name} is a subroutine; invoke it with `call`")
        args = [self.event(a) if i == 0 and builtin.event else self.expr(a)
                for i, a in enumerate(call.args)]
        if builtin.variadic:
            args = [", ".join(args)]
        text = builtin.template.format(
            *args, *builtin.defaults[n - builtin.required:])
        return self.wait(text, statement) if builtin.blocks else text

    # -- operands with their own rules ------------------------------------ #

    def event(self, e) -> str:
        if isinstance(e, A.Var):
            sym = self.resolve(e.name)
            if sym.kind == _EVENT:
                return _v(e.name)
            if sym.kind == _PARAM:
                return f"_p_event({_v(e.name)}, None)"
            self.fail(f"{e.name!r} is not an event")
        if isinstance(e, A.Index):
            sym = self.resolve(e.base.name)
            if sym.kind in (_EVENT, _PARAM):
                if e.selector is not None:
                    self.fail("events are scalars; use e[p]")
                if sym.kind == _EVENT:
                    return f"{_v(e.base.name)}.ref_for({self.rank(e.image)})"
                return f"_p_event({_v(e.base.name)}, {self.rank(e.image)})"
        self.fail("expected an event or event[image]")

    def argument(self, e) -> str:
        """A spawn/call argument: §II-C.2's by-reference cases (a bare
        coarray or event, a co-indexed coarray section, ``e[p]``), else
        a value."""
        if isinstance(e, A.Var):
            sym = self.lookup(e.name)
            if sym is not None and sym.kind in (_COARRAY, _EVENT):
                return _v(e.name)
            if sym is not None and sym.kind == _PARAM:
                return self.wait(f"_pass(img, {_v(e.name)})")
        if isinstance(e, A.Index):
            v, sym = _v(e.base.name), self.lookup(e.base.name)
            if sym is not None and sym.kind == _EVENT:
                return self.event(e)
            if sym is not None and sym.kind == _COARRAY \
                    and e.image is not None:
                return f"CoarrayRef({v}, {', '.join(self.place(e, sym))})"
            if sym is not None and sym.kind == _PARAM:
                rank, sel = self.place(e, sym)
                return self.wait(f"_p_ref(img, {v}, {rank}, {sel})")
        return self.expr(e)

    def location(self, e, what: str) -> str:
        """A copy_async endpoint: a CoarrayRef, or a local array view."""
        if isinstance(e, A.Var):
            e = A.Index(e, None, None)  # the whole array
        if not isinstance(e, A.Index):
            self.fail(f"invalid copy_async {what} expression")
        v, sym = _v(e.base.name), self.resolve(e.base.name)
        if sym.kind not in (_COARRAY, _ARRAY, _PARAM):
            self.fail(f"copy_async {what} {e.base.name!r} must be an array")
        rank, index = self.place(e, sym)
        if sym.kind == _ARRAY:
            return f"_view({v}, {index})"
        if sym.kind == _PARAM:
            return f"_p_loc(img, {v}, {rank}, {index})"
        rank = "img.rank" if rank == "None" else rank
        return f"CoarrayRef({v}, {rank}, {index})"


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #

def _shared(program: A.Program) -> dict:
    """The co-dimensioned program-level declarations, in allocation
    order."""
    symbols = {}
    for d in program.body:
        if not (isinstance(d, A.Decl) and d.codimension):
            continue
        where = f"line {d.line}: "
        if d.name in symbols:
            raise CafError(f"{where}{d.name!r} is declared twice")
        if d.type_name == "team":
            raise CafError(f"{where}a team cannot have a co-dimension")
        extent = None
        if d.type_name not in (_EVENT, _LOCK):
            if d.shape is None:
                extent = 1
            elif isinstance(d.shape, A.Num) and isinstance(d.shape.value,
                                                           int):
                extent = d.shape.value
            else:
                raise CafError(f"{where}coarray extents must be integer "
                               "literals")
        kind = d.type_name if d.type_name in (_EVENT, _LOCK) else _COARRAY
        symbols[d.name] = _Sym(kind, d.type_name, extent)
    return symbols


@dataclass(frozen=True)
class CompiledProgram:
    """A surface program lowered to generator functions: run
    ``kernel`` SPMD with ``setup=allocate``."""

    name: str
    kernel: Callable                 # the main program, ``kernel(img)``
    functions: dict                  # CAF name -> shipped function
    shared: dict                     # coarrays, events, locks by name
    source: str                      # the generated Python

    def allocate(self, machine) -> None:
        """Allocate the program's coarrays, events and locks over the
        world team (allocation is a team activity, before launch)."""
        for name, sym in self.shared.items():
            if sym.kind == _EVENT:
                machine.make_event(name=name)
            elif sym.kind == _LOCK:
                machine.make_lock(name=name)
            else:
                machine.coarray(name, shape=sym.extent,
                                dtype=getattr(np, _DTYPES[sym.type_name]))


def compile_program(source: str) -> CompiledProgram:
    """Parse and lower a surface program; raises :class:`CafError` (or a
    lexer/parser error) before anything runs."""
    program = parse(source)
    shared = _shared(program)
    units = [_Unit(program, shared).lower("main", (), program.body)]
    units += [_Unit(program, shared).lower(_f(fn.name), fn.params, fn.body)
              for fn in program.functions.values()]
    text = "\n\n\n".join(units) + "\n"
    filename = f"<caf program {program.name}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                 filename)  # tracebacks show the lowering
    namespace = {"np": np, "CoarrayRef": CoarrayRef, **_RUNTIME}
    exec(compile(text, filename, "exec"), namespace)
    functions = {}
    for name in program.functions:
        fn = functions[name] = namespace[_f(name)]
        fn.__name__ = fn.__qualname__ = name  # shipped activations' name
    return CompiledProgram(program.name, namespace["main"], functions,
                           shared, text)


def run_program(source: str, n_images: int, params=None, seed: int = 0,
                capture_prints: bool = False):
    """Compile a surface program and run it SPMD; returns ``(machine,
    per-image results, printed lines)``."""
    program = compile_program(source)
    prints: list[str] = []

    def setup(machine) -> None:
        program.allocate(machine)
        machine.scratch["lang.prints"] = prints
        machine.scratch["lang.capture"] = capture_prints

    machine, results = run_spmd(program.kernel, n_images, params=params,
                                seed=seed, setup=setup)
    return machine, results, prints
