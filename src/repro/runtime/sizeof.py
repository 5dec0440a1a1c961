"""Simulated wire footprint of Python values.

The simulator charges network time per byte; this module decides how many
bytes a payload "weighs".  Numpy data uses its true buffer size; scalars
weigh one word; containers add a small per-element header, approximating a
compact binary encoding (not pickle, whose overhead would distort the
model).
"""

from __future__ import annotations

import sys
from types import FunctionType, ModuleType
from typing import Any

import numpy as np

#: bytes charged per scalar (one 64-bit word)
WORD = 8
#: per-container overhead, bytes
CONTAINER_OVERHEAD = 16


#: the size of a value of exactly one of these types (not a subclass:
#: ``np.float64`` is a float, and weighs its ``nbytes``)
_SCALARS = {type(None): 0, bool: 1, int: WORD, float: WORD, complex: WORD}


def sizeof(value: Any) -> int:
    """Simulated size of ``value`` in bytes."""
    size = _SCALARS.get(value.__class__)
    if size is not None:
        return size
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, np.generic):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float, complex)):
        return WORD
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return CONTAINER_OVERHEAD + sum(sizeof(v) for v in value)
    if isinstance(value, dict):
        return CONTAINER_OVERHEAD + sum(
            sizeof(k) + sizeof(v) for k, v in value.items()
        )
    # Opaque objects (e.g. by-reference handles) travel as one descriptor.
    return WORD


#: node types deep_sizeof never descends into — shared interpreter
#: machinery, not per-machine state.
_OPAQUE = (ModuleType, FunctionType, type)


def deep_sizeof(root: Any) -> int:
    """Resident heap bytes of an object graph (the *simulator's* memory,
    not simulated wire bytes — contrast :func:`sizeof`).

    Walks ``__dict__``/``__slots__`` attributes and container elements
    iteratively with cycle detection, summing :func:`sys.getsizeof` per
    node plus numpy buffer sizes.  Functions, classes, and modules are
    counted as single references but not entered, so shared interpreter
    state is not attributed to the machine being measured.  Used by the
    weak-scaling bench to report bytes-per-image (DESIGN.md §13).
    """
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(obj, _OPAQUE):
            continue
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic C objects
            total += WORD
        if isinstance(obj, np.ndarray):
            total += int(obj.nbytes) if obj.base is None else 0
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if isinstance(obj, (str, bytes, bytearray, memoryview, range)):
            continue
        d = getattr(obj, "__dict__", None)
        if d is not None:
            stack.append(d)
        for klass in type(obj).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if isinstance(name, str) and hasattr(obj, name):
                    stack.append(getattr(obj, name))
    return total
