"""Pickled active-message wire format for the process backend.

Under the simulator every image shares one ``Machine``, so AM payloads
travel as live object references.  On real OS processes each worker
holds its own machine with its own registries, and the shared objects a
payload names — coarrays, events, locks, teams, the machine itself —
must be resolved *by identity* against the receiver's registries, never
copied.  (Copying a coarray would fork its storage; copying an EventVar
would drag a machine and its scheduler across the pipe.)

:func:`dump_frame` therefore pickles with one pickler per machine,
built on its first frame and its memo cleared after each one, whose
``dispatch_table`` reduces every registry-owned object — by exact class,
and the sending machine by identity — to a symbolic name; no Python
hook runs per pickled object.  :func:`load_frame`'s unpickler binds
those names to the receiving machine's registries in ``find_class``.
Everything else — numpy buffers, plain data, ``CoarrayRef`` /
``ImageSection`` / ``EventRef`` handles (whose inner registry objects
are reduced the same way), module-level shipped functions — pickles
structurally.

The symmetry requirement this creates is the same one every SPMD
runtime has: shared state must be *declared identically on every
process*.  ``run_spmd(setup=...)`` runs the setup on each worker, and
teams created by collective ``team_split`` calls get identical ids
everywhere because every member executes the same split sequence.  A
shipped function must be importable (module-level) — a closure has no
cross-process name, and raises a :class:`WireError` at send time rather
than a bare pickle error at the receiver.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from typing import Any

from repro.runtime.coarray import Coarray
from repro.runtime.event import EventVar
from repro.runtime.lock import LockVar
from repro.runtime.team import Team


class WireError(TypeError):
    """An AM payload cannot cross a process boundary (unpicklable
    object, or a name that does not resolve on the receiver)."""


def _member_spec(members) -> tuple:
    if isinstance(members, range):
        return ("r", members.start, members.stop)
    return ("t",) + tuple(members)


def _members_from_spec(spec: tuple):
    if spec[0] == "r":
        return range(spec[1], spec[2])
    return tuple(spec[1:])


def _ref(*ref: Any) -> Any:
    """What a registry object pickles as: ``_ref(tag, *name)``.  A
    frame's :class:`_Unpickler` finds the receiving machine's resolver
    under this name instead, so calling it means no machine was given."""
    raise WireError(f"registry reference {ref!r} resolves only through "
                    "load_frame, against a receiving machine")


class _Codec:
    """One machine's end of the wire, built on its first frame: one
    pickler for every frame it sends, and every global its received
    frames name, resolved once."""

    def __init__(self, machine):
        self.machine = machine
        self._buf = io.BytesIO()
        self._pickler = pickle.Pickler(self._buf, pickle.HIGHEST_PROTOCOL)
        # Registry objects reduce by exact class in the pickler's C
        # dispatch: no Python hook runs per pickled object.
        table = copyreg.dispatch_table.copy()
        table[Coarray] = lambda obj: (_ref, ("coarray", obj.name))
        table[EventVar] = lambda obj: (_ref, ("event", obj.name))
        table[LockVar] = lambda obj: (_ref, ("lock", obj.name))
        table[Team] = lambda obj: (
            _ref, ("team", obj.id, _member_spec(obj.members)))
        table[machine.__class__] = self._reduce_machine
        self._pickler.dispatch_table = table
        #: (module, name) -> what a received frame's global resolves to;
        #: a registry reference resolves against this machine
        self.found = {(__name__, "_ref"): self._resolve}

    def dump(self, obj: Any) -> bytes:
        try:
            self._pickler.dump(obj)
            return self._buf.getvalue()
        finally:
            # Per frame, failed or not: a buffer mutated between two
            # sends is two values, and nothing sent stays alive here.
            self._pickler.clear_memo()
            self._buf.seek(0)
            self._buf.truncate()

    def _reduce_machine(self, obj) -> tuple:
        # The sending machine by identity; another pickles as it would
        # without the entry.
        if obj is self.machine:
            return _ref, ("machine",)
        return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)

    def _resolve(self, tag: str, *ref: Any) -> Any:
        machine = self.machine
        try:
            if tag == "coarray":
                return machine.coarray_by_name(ref[0])
            if tag == "event":
                return machine.event_by_name(ref[0])
            if tag == "lock":
                return machine.lock_by_name(ref[0])
        except KeyError:
            raise WireError(
                f"remote active message references {tag} {ref[0]!r}, "
                "which this process never allocated — shared state must "
                "be declared on every process (run_spmd(setup=...) runs "
                "the setup everywhere)"
            ) from None
        if tag == "machine":
            return machine
        if tag == "team":
            team_id, spec = ref
            team = machine._teams.get(team_id)
            if team is None:
                # The sender split a team this process has not (yet)
                # created.  Materialize it under the sender's id; with
                # collective team creation (the CAF 2.0 rule) ids agree
                # on every process, so this only fills a timing gap.
                from repro.runtime.program import _member_key

                team = Team(_members_from_spec(spec), team_id=team_id)
                machine._teams[team_id] = team
                machine._teams_by_members.setdefault(
                    _member_key(team.members), team)
            return team
        raise pickle.UnpicklingError(
            f"unknown registry reference {(tag, *ref)!r}")


class _Unpickler(pickle.Unpickler):
    def __init__(self, buf, found: dict):
        super().__init__(buf)
        self._found = found

    def find_class(self, module: str, name: str) -> Any:
        try:
            return self._found[module, name]
        except KeyError:
            obj = self._found[module, name] = super().find_class(module,
                                                                 name)
            return obj


#: ``machine.scratch`` key of the machine's :class:`_Codec`
_CODEC = "wire.codec"


def _codec(machine) -> _Codec:
    codec = machine.scratch.get(_CODEC)
    if codec is None:
        codec = machine.scratch[_CODEC] = _Codec(machine)
    return codec


def dump_frame(machine, obj: Any) -> bytes:
    """Pickle ``obj`` for the wire, interning ``machine``-owned objects
    by name."""
    dump = _codec(machine).dump
    try:
        return dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise WireError(
            f"active-message payload cannot cross a process boundary: "
            f"{exc} — shipped functions must be module-level (a closure "
            "has no importable name), and payloads must be picklable"
        ) from exc


def load_frame(machine, data: bytes) -> Any:
    """Unpickle a frame, resolving interned names against ``machine``'s
    registries."""
    return _Unpickler(io.BytesIO(data), _codec(machine).found).load()
