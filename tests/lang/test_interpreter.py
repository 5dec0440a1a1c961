"""Surface programs lowered onto the runtime and executed."""

import pytest

from repro.lang import CafError, run_program


def run(source, n=4, **kwargs):
    return run_program(source, n, capture_prints=True, **kwargs)


def wrap(body, functions=""):
    return f"program t\n{body}\nend program\n{functions}"


class TestSequentialCore:
    def test_arithmetic_and_assignment(self):
        _m, results, _p = run(wrap(
            "integer :: a\n"
            "a = 2 + 3 * 4 - 1\n"
            "return a"), n=1)
        assert results == [13]

    def test_integer_division_truncates(self):
        _m, results, _p = run(wrap("return 7 / 2"), n=1)
        assert results == [3]

    def test_real_division(self):
        _m, results, _p = run(wrap("return 7.0 / 2"), n=1)
        assert results == [3.5]

    def test_do_loop_sum(self):
        _m, results, _p = run(wrap(
            "integer :: s, i\n"
            "do i = 1, 10\ns = s + i\nend do\nreturn s"), n=1)
        assert results == [55]

    def test_do_loop_step_and_exit_cycle(self):
        _m, results, _p = run(wrap(
            "integer :: s, i\n"
            "do i = 1, 100, 2\n"
            "  if (i == 5) then\n    cycle\n  end if\n"
            "  if (i > 9) then\n    exit\n  end if\n"
            "  s = s + i\n"
            "end do\nreturn s"), n=1)
        assert results == [1 + 3 + 7 + 9]

    def test_do_while(self):
        _m, results, _p = run(wrap(
            "integer :: n, c\nn = 20\n"
            "do while (n > 1)\n"
            "  n = n / 2\n  c = c + 1\n"
            "end do\nreturn c"), n=1)
        assert results == [4]

    def test_if_elseif_else(self):
        src = wrap(
            "integer :: x\n"
            "if (this_image() == 0) then\nx = 10\n"
            "else if (this_image() == 1) then\nx = 20\n"
            "else\nx = 30\nend if\n"
            "return x")
        _m, results, _p = run(src, n=3)
        assert results == [10, 20, 30]

    def test_arrays_one_based(self):
        _m, results, _p = run(wrap(
            "integer :: a(5)\ninteger :: i\n"
            "do i = 1, 5\na(i) = i * i\nend do\n"
            "return a(1) + a(5)"), n=1)
        assert results == [26]

    def test_array_slices(self):
        _m, results, _p = run(wrap(
            "integer :: a(6)\n"
            "a(1:3) = 7\n"
            "return sum(a(1:4))"), n=1)
        assert results == [21]

    def test_out_of_bounds_is_an_error(self):
        # only a run can tell: the image's own CafError, naming the task
        with pytest.raises(CafError, match="main@0"):
            run(wrap("integer :: a(3)\na(4) = 1"), n=1)

    def test_undeclared_name_is_an_error(self):
        with pytest.raises(CafError, match="line 2: .*'ghost'"):
            run(wrap("ghost = 1"), n=1)

    def test_print_capture(self):
        _m, _r, prints = run(wrap('print *, "value", 1 + 1'), n=2)
        assert len(prints) == 2
        assert all("value 2" in line for line in prints)


class TestParallelConstructs:
    def test_this_image_and_num_images(self):
        _m, results, _p = run(wrap(
            "return this_image() * 100 + num_images()"), n=3)
        assert results == [3, 103, 203]

    def test_coarray_sections_are_private(self):
        _m, results, _p = run(wrap(
            "integer :: x(2)[*]\n"
            "x = this_image()\n"
            "call team_barrier()\n"
            "return x(1)"), n=3)
        assert results == [0, 1, 2]

    def test_remote_read_and_write(self):
        src = wrap(
            "integer :: x(4)[*]\n"
            "x = this_image() + 1\n"
            "call team_barrier()\n"
            "if (this_image() == 0) then\n"
            "  x(2)[1] = 99\n"           # remote put
            "end if\n"
            "call team_barrier()\n"
            "return x(2)[1]")            # remote read from everyone
        _m, results, _p = run(src, n=3)
        assert results == [99, 99, 99]

    def test_collectives(self):
        src = wrap(
            "integer :: g\n"
            "g = allreduce(this_image() + 1)\n"
            "g = g + team_broadcast(this_image() * 10, 2)\n"
            "return g")
        _m, results, _p = run(src, n=4)
        assert results == [10 + 20] * 4

    def test_event_wait_notify(self):
        src = wrap(
            "event :: e[*]\n"
            "integer :: x(1)[*]\n"
            "if (this_image() == 1) then\n"
            "  x(1) = 42\n"
            "  call event_notify(e[0])\n"
            "end if\n"
            "if (this_image() == 0) then\n"
            "  call event_wait(e)\n"
            "  return x(1)[1]\n"
            "end if\n"
            "return 0")
        _m, results, _p = run(src, n=2)
        assert results[0] == 42

    def test_copy_async_and_cofence(self):
        src = wrap(
            "integer :: buf(4)[*]\n"
            "integer :: mine(4)\n"
            "if (this_image() == 0) then\n"
            "  mine = 5\n"
            "  copy_async(buf(:)[1], mine(:))\n"
            "  cofence()\n"
            "  mine = 0\n"               # safe after the fence
            "end if\n"
            "finish\nend finish\n"        # cheap global sync point
            "return buf(1)")
        _m, results, _p = run(src, n=2)
        assert results[1] == 5

    def test_finish_covers_spawn(self):
        src = wrap(
            "integer :: c(1)[*]\n"
            "finish\n"
            "  if (this_image() == 0) then\n"
            "    spawn bump(3) [1]\n"
            "  end if\n"
            "end finish\n"
            "return c(1)[1]",
            functions=(
                "function bump(n)\n"
                "  integer :: i\n"
                "  do i = 1, n\n"
                "    call compute(1.0e-6)\n"
                "    c(1) = c(1) + 1\n"
                "  end do\n"
                "  if (n > 1) then\n"
                "    spawn bump(n - 1) [this_image()]\n"
                "  end if\n"
                "end function"))
        _m, results, _p = run(src, n=2)
        # 3 + 2 + 1 increments, all complete before anyone's end finish
        assert results == [6, 6]

    def test_spawn_passes_coarray_by_reference(self):
        src = wrap(
            "integer :: tab(4)[*]\n"
            "finish\n"
            "  if (this_image() == 0) then\n"
            "    spawn fill(tab(2)[1], 9) [1]\n"
            "  end if\n"
            "end finish\n"
            "return tab(2)[1]",
            functions=(
                "function fill(slot, v)\n"
                "  slot = v\n"
                "end function"))
        # `slot` arrives as a CoarrayRef (by reference, §II-C.2) and
        # assignment writes through it to image 1's section.
        _m, results, _p = run(src, n=2)
        assert results == [9, 9]

    def test_spawn_manipulates_target_section(self):
        src = wrap(
            "integer :: tab(4)[*]\n"
            "finish\n"
            "  if (this_image() == 0) then\n"
            "    spawn fill(2, 9) [1]\n"
            "  end if\n"
            "end finish\n"
            "return tab(2)[1]",
            functions=(
                "function fill(i, v)\n"
                "  tab(i) = v\n"          # tab's *local* section: image 1's
                "end function"))
        _m, results, _p = run(src, n=2)
        assert results == [9, 9]

    def test_lock_mutual_exclusion(self):
        src = wrap(
            "integer :: counter(1)[*]\n"
            "lock :: l[*]\n"
            "integer :: i, v\n"
            "finish\n"
            "  do i = 1, 3\n"
            "    spawn bump_home() [0]\n"
            "  end do\n"
            "end finish\n"
            "call team_barrier()\n"
            "return counter(1)[0]",
            functions=(
                "function bump_home()\n"
                "  integer :: v\n"
                "  call lock(l, this_image())\n"
                "  v = counter(1)\n"
                "  call compute(1.0e-6)\n"
                "  counter(1) = v + 1\n"
                "  call unlock(l, this_image())\n"
                "end function"))
        _m, results, _p = run(src, n=4)
        assert results[0] == 12  # 4 images x 3 spawns, none lost


class TestErrors:
    # What the text alone shows is refused before any image runs.

    def test_event_without_codimension(self):
        with pytest.raises(CafError, match="line 4: .*co-dimension"):
            run(wrap("integer :: x\nif (x == 0) then\n"
                     "event :: e\nend if"), n=1)

    def test_spawn_unknown_function(self):
        with pytest.raises(CafError, match="unknown function"):
            run(wrap("finish\nspawn ghost() [0]\nend finish"), n=1)

    def test_spawn_wrong_arity(self):
        with pytest.raises(CafError, match="argument"):
            run(wrap("finish\nspawn f(1, 2) [0]\nend finish",
                     functions="function f(a)\nend function"), n=1)

    def test_non_coarray_remote_access(self):
        with pytest.raises(CafError, match="co-dimension"):
            run(wrap("integer :: a(2)\ninteger :: v\nv = a(1)[1]"), n=2)

    def test_determinism(self):
        src = wrap(
            "integer :: v\n"
            "v = random_int(1, 1000)\n"
            "return allreduce(v)")
        _m1, r1, _ = run(src, n=4, seed=5)
        _m2, r2, _ = run(src, n=4, seed=5)
        assert r1 == r2
