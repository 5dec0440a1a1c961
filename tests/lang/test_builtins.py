"""Unit tests for the surface-dialect builtins."""

import pytest

from repro.lang import CafError, run_program


def test_builtin_names_are_case_insensitive():
    src = ("program t\ncall TEAM_BARRIER()\n"
           "return MOD(17, 5) * 10 + Mod(7, 5)\nend program")
    _m, results, _p = run_program(src, 2, capture_prints=True)
    assert results == [22, 22]
    with pytest.raises(CafError, match="unknown function .*'nonesuch'"):
        run_program("program t\nreturn nonesuch(1, 2)\nend program", 1)


def test_event_builtins_take_a_coindexed_event():
    src = """
program t
  event :: e[*]
  if (this_image() == 1) then
    call EVENT_NOTIFY(e[0], 2)
  end if
  if (this_image() == 0) then
    call event_wait(e, 2)
  end if
  return 1
end program
"""
    _m, results, _p = run_program(src, 2, capture_prints=True)
    assert results == [1, 1]
    with pytest.raises(CafError, match="'v' is not an event"):
        run_program("program t\ninteger :: v\ncall event_wait(v)\n"
                    "end program", 1)


class TestIntrinsicsThroughPrograms:
    def run_expr(self, expr, n=1):
        src = f"program t\nreturn {expr}\nend program"
        _m, results, _p = run_program(src, n, capture_prints=True)
        return results[0]

    def test_mod(self):
        assert self.run_expr("mod(17, 5)") == 2

    def test_min_max(self):
        assert self.run_expr("min(4, 2, 9)") == 2
        assert self.run_expr("max(4, 2, 9)") == 9

    def test_abs(self):
        assert self.run_expr("abs(0 - 7)") == 7

    def test_int_real_conversion(self):
        assert self.run_expr("int(3.9)") == 3
        assert self.run_expr("real(3) / 2") == 1.5

    def test_size_and_sum(self):
        src = ("program t\ninteger :: a(5)\na = 2\n"
               "return size(a) * 100 + sum(a)\nend program")
        _m, results, _p = run_program(src, 1, capture_prints=True)
        assert results[0] == 510

    def test_random_int_range(self):
        for _ in range(3):
            v = self.run_expr("random_int(3, 5)")
            assert 3 <= v <= 5

    def test_random_image_excludes_self(self):
        src = ("program t\ninteger :: i, v\n"
               "do i = 1, 20\n"
               "  v = random_image()\n"
               "  if (v == this_image()) then\n    return -1\n  end if\n"
               "  if (v < 0 or v >= num_images()) then\n"
               "    return -2\n  end if\n"
               "end do\nreturn 0\nend program")
        _m, results, _p = run_program(src, 4, capture_prints=True)
        assert results == [0] * 4

    def test_random_image_single_image(self):
        assert self.run_expr("random_image()", n=1) == 0

    def test_compute_advances_clock(self):
        src = ("program t\ncall compute(5.0e-6)\nreturn 1\nend program")
        m, _r, _p = run_program(src, 1, capture_prints=True)
        assert m.sim.now >= 5e-6

    def test_collective_builtins(self):
        src = ("program t\n"
               "integer :: s, b\n"
               "s = team_scan(this_image() + 1)\n"
               "b = team_broadcast(s, num_images() - 1)\n"
               "return s * 100 + b\nend program")
        _m, results, _p = run_program(src, 3, capture_prints=True)
        # scans are 1, 3, 6; the broadcast distributes the last one
        assert results == [106, 306, 606]
