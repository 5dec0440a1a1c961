"""Recursive-descent parser for the CAF 2.0 surface dialect."""

from __future__ import annotations

from typing import Optional

from repro.lang.lexer import Token, tokenize
from repro.lang import ast_nodes as A


class ParseError(SyntaxError):
    """Malformed program text, with line information."""


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------- #

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def match(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.check(kind, value):
            want = value if value is not None else kind
            found = tok.value or tok.kind
            raise ParseError(
                f"line {tok.line}: expected {want!r}, found {found!r}")
        return self.advance()

    def skip_newlines(self) -> None:
        while self.match("NEWLINE"):
            pass

    def end_of_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "EOF":
            return
        if not self.match("NEWLINE"):
            raise ParseError(
                f"line {tok.line}: unexpected {tok.value!r} at end of "
                "statement")

    # -- program structure ------------------------------------------------ #

    def parse_program(self) -> A.Program:
        self.skip_newlines()
        self.expect("KEYWORD", "program")
        name = self.expect("NAME").value
        self.end_of_statement()
        body = self.parse_statements(until=("program",))
        self.expect("KEYWORD", "end")
        self.expect("KEYWORD", "program")
        self.match("NAME")
        self.skip_newlines()

        functions: dict[str, A.FunctionDef] = {}
        while not self.check("EOF"):
            fn = self.parse_function()
            if fn.name in functions:
                raise ParseError(f"function {fn.name!r} defined twice")
            functions[fn.name] = fn
            self.skip_newlines()
        return A.Program(name=name, body=tuple(body), functions=functions)

    def parse_function(self) -> A.FunctionDef:
        kw = self.peek()
        if not (self.check("KEYWORD", "function")
                or self.check("KEYWORD", "subroutine")):
            raise ParseError(
                f"line {kw.line}: expected a function or subroutine "
                f"definition, found {kw.value!r}")
        kind = self.advance().value
        name = self.expect("NAME").value
        params = []
        self.expect("OP", "(")
        if not self.check("OP", ")"):
            params.append(self.expect("NAME").value)
            while self.match("OP", ","):
                params.append(self.expect("NAME").value)
        self.expect("OP", ")")
        self.end_of_statement()
        body = self.parse_statements(until=("function", "subroutine"))
        self.expect("KEYWORD", "end")
        self.expect("KEYWORD", kind)
        self.match("NAME")
        self.end_of_statement()
        return A.FunctionDef(name=name, params=tuple(params),
                             body=tuple(body))

    # -- statements --------------------------------------------------------- #

    def parse_statements(self, until: tuple) -> list:
        """Parse statements until ``end <kw>`` for a kw in ``until`` (or
        an ``else``/``elseif`` when inside an if)."""
        out = []
        while True:
            self.skip_newlines()
            if self.check("EOF"):
                raise ParseError("unexpected end of file inside a block")
            if self.check("KEYWORD", "end"):
                nxt = self.peek(1)
                if nxt.kind == "KEYWORD" and nxt.value in until:
                    return out
                raise ParseError(
                    f"line {self.peek().line}: mismatched 'end "
                    f"{nxt.value}' (open block expects one of {until})")
            if self.check("KEYWORD", "else") or self.check("KEYWORD",
                                                           "elseif"):
                return out
            stmt = self.parse_statement()
            out.extend(stmt if isinstance(stmt, list) else [stmt])

    def parse_statement(self) -> A.Stmt | list[A.Decl]:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            handler = {
                "integer": self.parse_decl, "real": self.parse_decl,
                "logical": self.parse_decl, "event": self.parse_decl,
                "lock": self.parse_decl, "team": self.parse_decl,
                "call": self.parse_call_stmt,
                "if": self.parse_if,
                "do": self.parse_do,
                "finish": self.parse_finish,
                "cofence": self.parse_cofence,
                "copy_async": self.parse_copy_async,
                "spawn": self.parse_spawn,
                "print": self.parse_print,
                "return": self.parse_return,
                "exit": self.parse_exit,
                "cycle": self.parse_cycle,
            }.get(tok.value)
            if handler is None:
                raise ParseError(
                    f"line {tok.line}: unexpected keyword {tok.value!r}")
            return handler()
        if tok.kind == "NAME":
            return self.parse_assignment()
        raise ParseError(
            f"line {tok.line}: cannot start a statement with "
            f"{tok.value!r}")

    def parse_decl(self) -> list[A.Decl]:
        """``type :: a, b(n), c[*]``: one Decl per name."""
        type_tok = self.advance()
        self.expect("OP", "::")
        items = [self._decl_item(type_tok)]
        while self.match("OP", ","):
            items.append(self._decl_item(type_tok))
        self.end_of_statement()
        return items

    def _decl_item(self, type_tok: Token) -> A.Decl:
        name = self.expect("NAME").value
        shape = None
        codim = False
        if self.match("OP", "("):
            shape = self.parse_expression()
            self.expect("OP", ")")
        if self.match("OP", "["):
            self.expect("OP", "*")
            self.expect("OP", "]")
            codim = True
        return A.Decl(type_name=type_tok.value, name=name, shape=shape,
                      codimension=codim, line=type_tok.line)

    def parse_assignment(self) -> A.Assign:
        line = self.peek().line
        target = self.parse_postfix()
        if not isinstance(target, (A.Var, A.Index)):
            raise ParseError("assignment target must be a variable or "
                             "an element/section selection")
        self.expect("OP", "=")
        value = self.parse_expression()
        self.end_of_statement()
        return A.Assign(target=target, value=value, line=line)

    def parse_call_stmt(self) -> A.CallStmt:
        line = self.expect("KEYWORD", "call").line
        # `lock` is a declaration keyword but also a callable builtin
        if self.check("KEYWORD", "lock"):
            name = self.advance().value
        else:
            name = self.expect("NAME").value
        args: list = []
        if self.match("OP", "("):
            if not self.check("OP", ")"):
                args.append(self.parse_expression())
                while self.match("OP", ","):
                    args.append(self.parse_expression())
            self.expect("OP", ")")
        self.end_of_statement()
        return A.CallStmt(A.Call(name=name, args=tuple(args)), line=line)

    def parse_if(self) -> A.If:
        line = self.expect("KEYWORD", "if").line
        self.expect("OP", "(")
        condition = self.parse_expression()
        self.expect("OP", ")")
        self.expect("KEYWORD", "then")
        self.end_of_statement()
        then_body = self.parse_statements(until=("if",))
        else_body: list = []
        if self.match("KEYWORD", "else"):
            if self.check("KEYWORD", "if"):
                else_body = [self.parse_if()]
                return A.If(condition, tuple(then_body), tuple(else_body),
                            line=line)
            self.end_of_statement()
            else_body = self.parse_statements(until=("if",))
        elif self.check("KEYWORD", "elseif"):
            tok = self.advance()
            # rewrite `elseif (...)` as `else` + nested `if`
            self.tokens.insert(self.pos, Token("KEYWORD", "if", tok.line,
                                               tok.col))
            else_body = [self.parse_if()]
            return A.If(condition, tuple(then_body), tuple(else_body),
                        line=line)
        self.expect("KEYWORD", "end")
        self.expect("KEYWORD", "if")
        self.end_of_statement()
        return A.If(condition, tuple(then_body), tuple(else_body), line=line)

    def parse_do(self) -> A.Stmt:
        line = self.expect("KEYWORD", "do").line
        if self.match("KEYWORD", "while"):
            self.expect("OP", "(")
            condition = self.parse_expression()
            self.expect("OP", ")")
            self.end_of_statement()
            body = self.parse_statements(until=("do",))
            self.expect("KEYWORD", "end")
            self.expect("KEYWORD", "do")
            self.end_of_statement()
            return A.DoWhile(condition=condition, body=tuple(body),
                             line=line)
        var = self.expect("NAME").value
        self.expect("OP", "=")
        start = self.parse_expression()
        self.expect("OP", ",")
        stop = self.parse_expression()
        step = None
        if self.match("OP", ","):
            step = self.parse_expression()
        self.end_of_statement()
        body = self.parse_statements(until=("do",))
        self.expect("KEYWORD", "end")
        self.expect("KEYWORD", "do")
        self.end_of_statement()
        return A.Do(var=var, start=start, stop=stop, step=step,
                    body=tuple(body), line=line)

    def parse_finish(self) -> A.Finish:
        line = self.expect("KEYWORD", "finish").line
        team = None
        if self.match("OP", "("):
            team = self.parse_expression()
            self.expect("OP", ")")
        self.end_of_statement()
        body = self.parse_statements(until=("finish",))
        self.expect("KEYWORD", "end")
        self.expect("KEYWORD", "finish")
        self.end_of_statement()
        return A.Finish(body=tuple(body), team=team, line=line)

    def parse_cofence(self) -> A.Cofence:
        line = self.expect("KEYWORD", "cofence").line
        downward = upward = None
        if self.match("OP", "("):
            while not self.check("OP", ")"):
                key = self.advance()
                if key.kind not in ("NAME", "KEYWORD"):
                    raise ParseError(
                        f"line {key.line}: bad cofence argument")
                self.expect("OP", "=")
                val = self.advance()
                direction = key.value.lower()
                value = val.value.lower()
                if direction == "downward":
                    downward = value
                elif direction == "upward":
                    upward = value
                else:
                    raise ParseError(
                        f"line {key.line}: cofence takes DOWNWARD/UPWARD, "
                        f"not {key.value!r}")
                if not self.match("OP", ","):
                    break
            self.expect("OP", ")")
        self.end_of_statement()
        return A.Cofence(downward=downward, upward=upward, line=line)

    def parse_copy_async(self) -> A.CopyAsync:
        line = self.expect("KEYWORD", "copy_async").line
        self.expect("OP", "(")
        dest = self.parse_expression()
        self.expect("OP", ",")
        src = self.parse_expression()
        events: list = []
        while self.match("OP", ","):
            events.append(self.parse_expression())
        self.expect("OP", ")")
        self.end_of_statement()
        if len(events) > 3:
            raise ParseError("copy_async takes at most 3 event arguments "
                             "(pre, src, dest)")
        return A.CopyAsync(dest=dest, src=src, events=tuple(events),
                           line=line)

    def parse_spawn(self) -> A.Spawn:
        line = self.expect("KEYWORD", "spawn").line
        event = None
        if self.match("OP", "("):
            event = self.parse_expression()
            self.expect("OP", ")")
        name = self.expect("NAME").value
        args: list = []
        self.expect("OP", "(")
        if not self.check("OP", ")"):
            args.append(self.parse_expression())
            while self.match("OP", ","):
                args.append(self.parse_expression())
        self.expect("OP", ")")
        self.expect("OP", "[")
        image = self.parse_expression()
        self.expect("OP", "]")
        self.end_of_statement()
        return A.Spawn(function=name, args=tuple(args), image=image,
                       event=event, line=line)

    def parse_print(self) -> A.Print:
        line = self.expect("KEYWORD", "print").line
        self.expect("OP", "*")
        values: list = []
        while self.match("OP", ","):
            values.append(self.parse_expression())
        self.end_of_statement()
        return A.Print(values=tuple(values), line=line)

    def parse_return(self) -> A.Return:
        line = self.expect("KEYWORD", "return").line
        value = None
        if not self.check("NEWLINE") and not self.check("EOF"):
            value = self.parse_expression()
        self.end_of_statement()
        return A.Return(value=value, line=line)

    def parse_exit(self) -> A.Exit:
        line = self.expect("KEYWORD", "exit").line
        self.end_of_statement()
        return A.Exit(line=line)

    def parse_cycle(self) -> A.Cycle:
        line = self.expect("KEYWORD", "cycle").line
        self.end_of_statement()
        return A.Cycle(line=line)

    # -- expressions ---------------------------------------------------------- #

    def parse_expression(self) -> A.Expr:
        return self.parse_or()

    def parse_or(self) -> A.Expr:
        left = self.parse_and()
        while self.match("KEYWORD", "or"):
            left = A.BinOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> A.Expr:
        left = self.parse_not()
        while self.match("KEYWORD", "and"):
            left = A.BinOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> A.Expr:
        if self.match("KEYWORD", "not"):
            return A.UnaryOp("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> A.Expr:
        left = self.parse_additive()
        for op in ("==", "/=", "<=", ">=", "<", ">"):
            if self.check("OP", op):
                self.advance()
                return A.BinOp(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> A.Expr:
        left = self.parse_multiplicative()
        while self.check("OP", "+") or self.check("OP", "-"):
            op = self.advance().value
            left = A.BinOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> A.Expr:
        left = self.parse_power()
        while self.check("OP", "*") or self.check("OP", "/"):
            op = self.advance().value
            left = A.BinOp(op, left, self.parse_power())
        return left

    def parse_power(self) -> A.Expr:
        left = self.parse_unary()
        if self.match("OP", "**"):
            return A.BinOp("**", left, self.parse_power())
        return left

    def parse_unary(self) -> A.Expr:
        if self.match("OP", "-"):
            return A.UnaryOp("-", self.parse_unary())
        if self.match("OP", "+"):
            return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        atom = self.parse_atom()
        if not isinstance(atom, A.Var):
            return atom
        selector = None
        image = None
        is_multi_arg_call = False
        args: list = []
        if self.match("OP", "("):
            if self.check("OP", ")"):
                self.advance()
                return A.Call(name=atom.name)
            first = self.parse_index_item()
            args.append(first)
            while self.match("OP", ","):
                is_multi_arg_call = True
                args.append(self.parse_index_item())
            self.expect("OP", ")")
            if is_multi_arg_call:
                for a in args:
                    if isinstance(a, A.Slice):
                        raise ParseError("slices are not call arguments")
                return A.Call(name=atom.name, args=tuple(args))
            selector = first
        if self.match("OP", "["):
            image = self.parse_expression()
            self.expect("OP", "]")
        if selector is None and image is None:
            return atom
        return A.Index(base=atom, selector=selector, image=image)

    def parse_index_item(self):
        """One item inside parentheses: an expression or a lo:hi slice."""
        if self.check("OP", ":"):
            self.advance()
            hi = None if self.check("OP", ")") or self.check("OP", ",") \
                else self.parse_expression()
            return A.Slice(lo=None, hi=hi)
        expr = self.parse_expression()
        if self.match("OP", ":"):
            hi = None if self.check("OP", ")") or self.check("OP", ",") \
                else self.parse_expression()
            return A.Slice(lo=expr, hi=hi)
        return expr

    def parse_atom(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return A.Num(int(tok.value))
        if tok.kind == "FLOAT":
            self.advance()
            return A.Num(float(tok.value))
        if tok.kind == "STRING":
            self.advance()
            return A.Str(tok.value)
        if tok.kind == "KEYWORD" and tok.value in ("true", "false"):
            self.advance()
            return A.Bool(tok.value == "true")
        if tok.kind == "KEYWORD" and tok.value == "real" \
                and self.peek(1).kind == "OP" and self.peek(1).value == "(":
            # `real(x)` the conversion intrinsic, not the type keyword
            self.advance()
            return A.Var("real")
        if tok.kind == "NAME":
            self.advance()
            return A.Var(tok.value)
        if self.match("OP", "("):
            inner = self.parse_expression()
            self.expect("OP", ")")
            return inner
        raise ParseError(
            f"line {tok.line}: expected an expression, found "
            f"{(tok.value or tok.kind)!r}")


def parse(source: str) -> A.Program:
    """Parse a whole program file."""
    return Parser(tokenize(source)).parse_program()
