"""GASNet-style active messages.

An active message names a *handler* that runs at the destination when the
message is delivered.  Three categories mirror GASNet:

- ``SHORT``  — a few words of arguments, no payload;
- ``MEDIUM`` — payload up to ``MachineParams.am_medium_max`` bytes
  (the cap that limits a UTS steal to 9 work descriptors in the paper);
- ``LONG``   — bulk payload (coarray data, collective vectors), no cap.

Handlers are either plain callables (run inline at delivery time, like
GASNet handler context: no blocking allowed) or generator functions
(spawned as a simulation task — this is how shipped functions execute).
A handler runs as ``handler(msg, *msg.args)``: the delivered
:class:`~repro.net.transport.Message` is its context — ``msg.dst`` the
image it runs on, ``msg.src`` the sender, ``msg.payload`` the bulk data
and ``msg.size`` the simulated bytes it was sent as.
"""

from __future__ import annotations

import enum
import inspect
from typing import Any, Callable, Generator, Optional

from repro.sim.tasks import Task
from repro.net.transport import Message, Transport
from repro.net.flowcontrol import CreditManager


class AMCategory(enum.Enum):
    SHORT = "short"
    MEDIUM = "medium"
    LONG = "long"


class AMSizeError(ValueError):
    """Payload too large for the requested AM category."""


class AMLayer:
    """Active-message dispatch over a
    :class:`~repro.net.transport.Transport`."""

    def __init__(self, network: Transport,
                 credit_manager: Optional[CreditManager] = None,
                 install_family: Optional[Callable[[str], None]] = None):
        self.network = network
        self.sim = network.sim
        self.params = network.params
        self.credits = credit_manager
        #: asked, with the name, to install the handler family a name
        #: nobody registered belongs to — the first time that name is
        #: requested *or delivered* here
        self._install_family = install_family
        #: handler name -> ``(fn, runs_as_task, default_kind)``, decided
        #: once at registration: generator functions run as tasks, the
        #: rest inline; a request that names no kind travels as
        #: ``am.<handler>``
        self._handlers: dict[str, tuple] = {}
        #: (handler name, image) -> the name of the tasks that handler
        #: runs as there, formatted once per pair
        self._task_names: dict[tuple, str] = {}
        #: category value -> ``(counter key, largest payload it
        #: carries)``; keyed by the member's plain ``_value_`` string,
        #: since hashing the member itself is a Python-level call
        self._categories = {
            AMCategory.SHORT.value: ("am.short", 0),
            AMCategory.MEDIUM.value: ("am.medium", self.params.am_medium_max),
            AMCategory.LONG.value: ("am.long", float("inf")),
        }

    # ------------------------------------------------------------------ #
    # Handler registry
    # ------------------------------------------------------------------ #

    def register(self, name: str, fn: Callable) -> None:
        """Register a handler.  Generator functions become tasks at
        delivery; plain callables run inline."""
        if name in self._handlers:
            raise ValueError(f"AM handler {name!r} already registered")
        self._install(name, fn)

    def ensure_registered(self, name: str, fn: Callable) -> None:
        """Idempotent registration."""
        if name not in self._handlers:
            self._install(name, fn)

    def _install(self, name: str, fn: Callable) -> None:
        self._handlers[name] = (fn, inspect.isgeneratorfunction(fn),
                                f"am.{name}")

    def _unknown(self, name: str) -> tuple:
        """The miss path of a request or a delivery."""
        if self._install_family is not None:
            self._install_family(name)
        record = self._handlers.get(name)
        if record is None:
            raise KeyError(f"unknown AM handler {name!r}")
        return record

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def _size_error(self, category: AMCategory,
                    payload_size: int) -> AMSizeError:
        if payload_size < 0:
            return AMSizeError(f"negative payload size {payload_size}")
        if category is AMCategory.SHORT:
            return AMSizeError("SHORT active messages carry no payload")
        return AMSizeError(
            f"MEDIUM payload {payload_size}B exceeds "
            f"am_medium_max={self.params.am_medium_max}B")

    def request_nb(self, src: int, dst: int, handler: str,
                   args: tuple = (), payload: Any = None,
                   payload_size: int = 0,
                   category: AMCategory = AMCategory.MEDIUM,
                   want_ack: bool = False,
                   kind: Optional[str] = None,
                   best_effort: bool = False) -> Message:
        """Fire an active message without flow-control credits.

        Safe from any context (including inline handlers).  Returns the
        sent :class:`~repro.net.transport.Message`; its ``injected`` is
        source-buffer local-data completion.  ``best_effort`` bypasses the reliable
        protocol (heartbeat traffic).
        """
        record = self._handlers.get(handler) or self._unknown(handler)
        category_stat, max_size = self._categories[category._value_]
        if not 0 <= payload_size <= max_size:
            raise self._size_error(category, payload_size)
        msg = Message(src, dst, payload_size, payload, kind or record[2],
                      self._on_deliver, handler, args)
        network = self.network
        network.stats.counts[category_stat] += 1
        return network.send(msg, want_ack, best_effort)

    def request(self, src: int, dst: int, send: Callable[[], Message]
                ) -> Generator[Any, Any, Message]:
        """Credit-aware send; use with ``yield from`` inside a task.

        Blocks while the (src, dst) credit pool is exhausted, then sends
        with ``send()`` — a :meth:`request_nb` from ``src`` to ``dst``
        that asks for the delivery ack, which returns the credit.  A send
        refused before it leaves returns the credit at once.  Without a
        credit manager this is ``send()``.
        """
        credits = self.credits
        if credits is None:
            return send()
        yield from credits.acquire(src, dst)
        try:
            msg = send()
        except Exception:
            credits.release(src, dst)
            raise
        msg.delivered.add_done_callback(
            lambda _f: credits.release(src, dst))
        return msg

    # ------------------------------------------------------------------ #

    def _on_deliver(self, msg: Message) -> None:
        handler_name = msg.handler
        try:
            fn, runs_as_task, _ = self._handlers[handler_name]
        except KeyError:
            fn, runs_as_task, _ = self._unknown(handler_name)
        if runs_as_task:
            # Handler tasks run on behalf of the destination image, so a
            # fail-stop crash of that image halts them too.
            where = (handler_name, msg.dst)
            name = self._task_names.get(where)
            if name is None:
                name = self._task_names[where] = (
                    f"am.{handler_name}@{msg.dst}")
            Task(self.sim, fn(msg, *msg.args), name=name, owner=msg.dst)
        else:
            fn(msg, *msg.args)
