"""The layer boundaries ``benchmarks/e2e/trace.py`` patches still exist.

The tracer replaces the functions in its ``TARGETS`` table by name; a
required one that moved is otherwise only discovered by the minute-long
``e2e-smoke`` job.  This reads the table, nothing else of the benchmark.
"""

import importlib
import inspect

import pytest

from benchmarks.e2e.trace import TARGETS
from repro.runtime import image
from repro.runtime.image import Image

COLLECTIVE_MODULES = {"repro.core.collectives": "_coll",
                      "repro.core.collectives_async": "_acoll"}


def _resolve(modname, path):
    target = importlib.import_module(modname)
    for part in path.split("."):
        target = getattr(target, part, None)
    return target


@pytest.mark.parametrize("layer,modname,path,required", TARGETS,
                         ids=[f"{t[1]}:{t[2]}" for t in TARGETS])
def test_target_resolves(layer, modname, path, required):
    target = _resolve(modname, path)
    if required:
        assert callable(target), f"{modname}:{path} moved"
    alias = COLLECTIVE_MODULES.get(modname)
    if alias is None:
        return
    # The tracer patches the module attribute, so Image must reach the
    # collective through the module at call time — and as a generator
    # function where it blocks, or its suspended time is booked as busy.
    assert getattr(image, alias) is importlib.import_module(modname)
    method = getattr(Image, path)
    assert {alias, path} <= set(method.__code__.co_names)
    assert (inspect.isgeneratorfunction(target)
            == (not path.endswith("_async")))
