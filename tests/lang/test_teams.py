"""Tests for teams in the surface language (§II-A)."""

import pytest

from repro.lang import CafError, run_program


def run(source, n=6):
    return run_program(source, n, capture_prints=True)


def test_world_team_default():
    src = """
program t
  team :: everyone
  return team_size(everyone) * 100 + team_rank(everyone)
end program
"""
    _m, results, _p = run(src, n=3)
    assert results == [300, 301, 302]


def test_team_split_by_parity():
    src = """
program t
  team :: half
  half = team_split(world(), mod(this_image(), 2), this_image())
  return team_size(half) * 100 + team_rank(half)
end program
"""
    _m, results, _p = run(src, n=6)
    assert results == [300, 300, 301, 301, 302, 302]


def test_subteam_collectives_are_isolated():
    src = """
program t
  team :: half
  half = team_split(world(), mod(this_image(), 2), this_image())
  return allreduce_on(half, this_image())
end program
"""
    _m, results, _p = run(src, n=6)
    assert results == [6, 9, 6, 9, 6, 9]


def test_broadcast_on_subteam():
    src = """
program t
  team :: half
  half = team_split(world(), mod(this_image(), 2), this_image())
  return broadcast_on(half, this_image() * 10, 1)
end program
"""
    _m, results, _p = run(src, n=4)
    # team rank 1 of evens is image 2; of odds is image 3
    assert results == [20, 30, 20, 30]


def test_finish_on_subteam():
    src = """
program t
  team :: half
  integer :: hits(1)[*]
  half = team_split(world(), mod(this_image(), 2), this_image())
  finish(half)
    if (team_rank(half) == 0) then
      spawn mark() [this_image() + 2]
    end if
  end finish
  call team_barrier()
  return allreduce(hits(1))
end program

function mark()
  hits(1) = hits(1) + 1
  call compute(1.0e-6)
end function
"""
    _m, results, _p = run(src, n=6)
    assert results == [2] * 6  # one spawn per half-team


def test_finish_requires_team_value():
    src = """
program t
  finish(42)
  end finish
end program
"""
    with pytest.raises(CafError, match="team value"):
        run(src, n=2)


def test_barrier_on_synchronizes_subteam():
    src = """
program t
  team :: half
  half = team_split(world(), mod(this_image(), 2), this_image())
  if (mod(this_image(), 2) == 0) then
    call compute(1.0e-5)
  end if
  call barrier_on(half)
  return 1
end program
"""
    m, results, _p = run(src, n=4)
    assert results == [1] * 4
