"""The lowering: the bundled listings run exactly as recorded, launch
through ``run_spmd`` like any kernel, and what the text alone shows to
be wrong is refused before any image runs."""

import json
import pathlib

import numpy as np
import pytest

from repro import run_spmd
from repro.lang import CafError, compile_program, run_program

ROOT = pathlib.Path(__file__).parents[2]
LISTINGS = sorted((ROOT / "examples" / "caf").glob("*.caf"))
#: per-image results, simulated time, events, stats and printed lines of
#: each listing at seed 0, as the tree-walking interpreter this lowering
#: replaced produced them
RECORDED = json.loads((ROOT / "tests" / "data" /
                       "caf_listings.json").read_text())


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("path", LISTINGS, ids=lambda p: p.name)
def test_listing_runs_as_recorded(path, n):
    machine, results, prints = run_program(path.read_text(), n, seed=0,
                                           capture_prints=True)
    want = RECORDED[f"{path.name}@{n}"]
    assert [type(r).__name__ for r in results] == want["result_types"]
    assert [r.item() if isinstance(r, np.generic) else r
            for r in results] == want["results"]
    assert machine.sim.now == want["now"]
    assert machine.sim.events_processed == want["events"]
    assert machine.stats.as_dict() == want["stats"]
    assert prints == want["prints"]


#: races the happens-before detector reports on each listing at 8 images
RACES = {"fib.caf": 16, "fig3_steal.caf": 2, "fig11_microbench.caf": 0,
         "fig8_pipeline.caf": 0, "ring.caf": 0}


@pytest.mark.parametrize("path", LISTINGS, ids=lambda p: p.name)
def test_listing_under_the_race_detector(path):
    """See LANGUAGE.md for why fib and fig3_steal are racy on purpose."""
    program = compile_program(path.read_text())
    machine, _ = run_spmd(program.kernel, 8, seed=0,
                          setup=program.allocate, racecheck=True)
    assert machine.racecheck.race_count == RACES[path.name]


@pytest.mark.parametrize("name, shipped", [("fib.caf", 1),
                                           ("fig3_steal.caf", 2)])
def test_one_record_per_shipped_function(name, shipped):
    machine, _r, _p = run_program((ROOT / "examples" / "caf" / name)
                                  .read_text(), 8, capture_prints=True)
    assert len(machine.scratch["spawn.fn_names"]) == shipped


def test_one_generator_per_program_unit():
    program = compile_program((ROOT / "examples" / "caf" /
                               "fig3_steal.caf").read_text())
    assert set(program.functions) == {"steal_work", "provide_work"}
    assert program.source.count("\ndef ") + 1 == 3
    assert list(program.shared) == ["metadata", "queue", "executed",
                                    "qlock"]


class TestStaticErrors:
    """Raised by compile_program, with the line, before anything runs."""

    @pytest.mark.parametrize("body, message", [
        ("v = ghost + 1", "line 3: name 'ghost' is not declared"),
        ("call ghost(1)", "line 3: unknown function or subroutine"),
        ("v = f(1, 2)", "line 3: user function 'f' may only be invoked"),
        ("call f()", "line 3: f takes 1 argument"),
        ("call compute()", "line 3: compute takes 1 argument"),
        ("v = team_barrier()", "line 3: team_barrier is a subroutine"),
        ("exit", "line 3: exit outside a do loop"),
        ("v(1)[0] = 2", "line 3: .*'v' cannot be indexed"),
        ("cofence(downward=sideways)", "line 3: cofence direction"),
        ("if (v == 0) then\n  integer :: c[*]\nend if",
         "line 4: coarray 'c' must be declared at program level"),
    ])
    def test_refused(self, body, message):
        source = (f"program t\ninteger :: v\n{body}\nend program\n"
                  "function f(a)\nend function")
        with pytest.raises(CafError, match=message):
            compile_program(source)

    def test_in_a_function(self):
        source = ("program t\nend program\n"
                  "function f(a)\n  integer :: b(2)\n  a = b(1)[0]\n"
                  "end function")
        with pytest.raises(CafError, match="line 5: 'b' is not a coarray"):
            compile_program(source)


def test_integer_division_truncates_toward_zero():
    source = "program t\nreturn (0 - 7) / 2 * 10 + 7 / (0 - 2)\nend program"
    _m, results, _p = run_program(source, 1, capture_prints=True)
    assert results == [-33]


def test_language_md_shows_the_real_lowering():
    doc = (ROOT / "LANGUAGE.md").read_text()
    section = doc[doc.index("## How a program runs"):]
    source = section.split("```fortran\n", 1)[1].split("```", 1)[0]
    lowered = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert compile_program(source).source == lowered
