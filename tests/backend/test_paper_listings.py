"""The paper's listings (``examples/caf/``) on two real processes.

A lowered program's functions live in no importable module, so a spawn
to another image cannot cross the wire (``WireError``, LANGUAGE.md
"Process backend").  The three listings that ship nothing across print
what the simulator prints; the two that do fail with a typed error —
``fig3_steal`` in its main program, ``fib`` in a shipped function, so
its ``end finish`` raises :class:`FinishError`.
"""

from __future__ import annotations

import pathlib
import re
import time

import pytest

from repro import FinishError, run_spmd
from repro.backend.wire import WireError
from repro.lang import compile_program

pytestmark = pytest.mark.parallel

CAF = pathlib.Path(__file__).resolve().parents[2] / "examples" / "caf"


def _run(name: str, backend: str):
    """Run ``examples/caf/<name>.caf`` on two images; returns every
    line it printed, on any image, without its time stamp, sorted."""
    program = compile_program((CAF / f"{name}.caf").read_text())

    def setup(machine):
        program.allocate(machine)
        machine.scratch["lang.capture"] = True

    def prints(machine, rank):
        return machine.scratch.get("lang.prints", [])

    run, _results = run_spmd(program.kernel, 2, setup=setup,
                             finalize=prints, backend=backend)
    # The simulator's images share one list; each worker keeps its own.
    lines = run.extras[0] if backend == "sim" else sum(run.extras, [])
    return sorted(re.sub(r" @ [^\]]*\]", "]", line) for line in lines)


@pytest.mark.parametrize("name", ["fig11_microbench", "fig8_pipeline",
                                  "ring"])
def test_listing_prints_what_the_simulator_prints(name,
                                                  leaves_nothing_behind):
    expected = _run(name, "sim")
    assert expected
    assert _run(name, "process") == expected


def test_fib_fails_its_finish_with_the_wire_error(leaves_nothing_behind):
    assert _run("fib", "sim") == ["[img 0] fib( 10 ) = 55  expected 55"]
    began = time.monotonic()
    with pytest.raises(FinishError, match=r"fib_task@\d raised WireError") as caught:
        _run("fib", "process")
    assert time.monotonic() - began < 1.0
    assert isinstance(caught.value.__cause__, WireError)


def test_fig3_steal_fails_with_the_wire_error(leaves_nothing_behind):
    with pytest.raises(WireError, match="steal_work"):
        _run("fig3_steal", "process")
