"""Unit tests for the surface-dialect parser."""

import pytest

from repro.lang import ast_nodes as A
from repro.lang.parser import ParseError, parse


def parse_body(statements: str) -> tuple:
    return parse(f"program t\n{statements}\nend program").body


class TestStructure:
    def test_minimal_program(self):
        prog = parse("program p\nend program")
        assert prog.name == "p"
        assert prog.body == ()

    def test_program_with_functions(self):
        prog = parse(
            "program p\nend program\n"
            "function f(a, b)\nend function\n"
            "subroutine s()\nend subroutine\n")
        assert set(prog.functions) == {"f", "s"}
        assert prog.functions["f"].params == ("a", "b")

    def test_duplicate_function_rejected(self):
        with pytest.raises(ParseError, match="twice"):
            parse("program p\nend program\n"
                  "function f()\nend function\n"
                  "function f()\nend function\n")

    def test_unclosed_block(self):
        with pytest.raises(ParseError, match="mismatched"):
            parse("program p\nif (true) then\nend program")
        with pytest.raises(ParseError, match="end of file"):
            parse("program p\nif (true) then\nx = 1")

    def test_mismatched_end(self):
        with pytest.raises(ParseError, match="mismatched"):
            parse("program p\ndo i = 1, 3\nend if\nend do\nend program")


class TestDeclarations:
    def test_scalar(self):
        (decl,) = parse_body("integer :: n")
        assert decl == A.Decl("integer", "n", None, False)

    def test_array_coarray(self):
        (decl,) = parse_body("real :: a(8)[*]")
        assert decl.type_name == "real"
        assert decl.shape == A.Num(8)
        assert decl.codimension

    def test_multi_declaration(self):
        decls = parse_body("integer :: a, b(4), c[*]")
        assert [d.name for d in decls] == ["a", "b", "c"]
        assert all(d.type_name == "integer" and d.line == 2 for d in decls)

    def test_event_and_lock(self):
        body = parse_body("event :: e[*]\nlock :: l[*]")
        assert body[0].type_name == "event"
        assert body[1].type_name == "lock"


class TestStatements:
    def test_assignment_targets(self):
        body = parse_body("integer :: a(4)[*]\n"
                          "a = 1\na(2) = 1\na(1:3) = 1\na(2)[1] = 1")
        assert isinstance(body[1].target, A.Var)
        assert body[2].target.selector == A.Num(2)
        assert isinstance(body[3].target.selector, A.Slice)
        assert body[4].target.image == A.Num(1)

    def test_if_else(self):
        (stmt,) = parse_body(
            "if (x > 1) then\ny = 1\nelse\ny = 2\nend if")
        assert isinstance(stmt, A.If)
        assert len(stmt.then_body) == 1
        assert len(stmt.else_body) == 1

    def test_do_loop_with_step(self):
        (stmt,) = parse_body("do i = 1, 10, 2\nend do")
        assert stmt.var == "i"
        assert stmt.step == A.Num(2)

    def test_do_while(self):
        (stmt,) = parse_body("do while (n > 0)\nn = n - 1\nend do")
        assert isinstance(stmt, A.DoWhile)

    def test_finish_block(self):
        (stmt,) = parse_body("finish\nx = 1\nend finish")
        assert isinstance(stmt, A.Finish)
        assert len(stmt.body) == 1

    def test_cofence_arguments(self):
        body = parse_body("cofence\ncofence()\n"
                          "cofence(downward=write)\n"
                          "cofence(downward=read, upward=any)")
        assert body[0] == A.Cofence(None, None)
        assert body[1] == A.Cofence(None, None)
        assert body[2] == A.Cofence("write", None)
        assert body[3] == A.Cofence("read", "any")

    def test_cofence_bad_keyword(self):
        with pytest.raises(ParseError, match="DOWNWARD/UPWARD"):
            parse_body("cofence(sideways=read)")

    def test_copy_async_with_events(self):
        (stmt,) = parse_body("copy_async(a(1)[2], b(1), pre, se, de)")
        assert isinstance(stmt, A.CopyAsync)
        assert len(stmt.events) == 3

    def test_copy_async_too_many_events(self):
        with pytest.raises(ParseError, match="at most 3"):
            parse_body("copy_async(a, b, e1, e2, e3, e4)")

    def test_spawn(self):
        (stmt,) = parse_body("spawn work(x, 3) [victim]")
        assert stmt.function == "work"
        assert len(stmt.args) == 2
        assert stmt.image == A.Var("victim")
        assert stmt.event is None

    def test_spawn_with_event(self):
        (stmt,) = parse_body("spawn(e) work() [2]")
        assert stmt.event == A.Var("e")

    def test_print(self):
        (stmt,) = parse_body('print *, "x is", x')
        assert stmt.values == (A.Str("x is"), A.Var("x"))

    def test_return(self):
        body = parse_body("return\nreturn x + 1")
        assert body[0].value is None
        assert isinstance(body[1].value, A.BinOp)


class TestExpressions:
    def expr(self, text):
        (stmt,) = parse_body(f"x = {text}")
        return stmt.value

    def test_precedence(self):
        e = self.expr("1 + 2 * 3")
        assert e == A.BinOp("+", A.Num(1),
                            A.BinOp("*", A.Num(2), A.Num(3)))

    def test_power_right_associative(self):
        e = self.expr("2 ** 3 ** 2")
        assert e == A.BinOp("**", A.Num(2),
                            A.BinOp("**", A.Num(3), A.Num(2)))

    def test_comparison_and_logic(self):
        e = self.expr("a < b and not c")
        assert e.op == "and"
        assert e.left.op == "<"
        assert e.right.op == "not"

    def test_single_arg_is_index(self):
        e = self.expr("a(i)")
        assert isinstance(e, A.Index)

    def test_multi_arg_is_call(self):
        e = self.expr("mod(a, b)")
        assert e == A.Call("mod", (A.Var("a"), A.Var("b")))

    def test_empty_parens_is_call(self):
        e = self.expr("this_image()")
        assert e == A.Call("this_image")

    def test_remote_element(self):
        e = self.expr("a(i)[p]")
        assert e == A.Index(A.Var("a"), A.Var("i"), A.Var("p"))

    def test_slices(self):
        e = self.expr("a(1:4)")
        assert e.selector == A.Slice(A.Num(1), A.Num(4))
        e = self.expr("a(:)")
        assert e.selector == A.Slice(None, None)
