"""Tokenizer for the CAF 2.0 surface dialect.

Line-oriented, Fortran-flavoured: ``!`` starts a comment, keywords are
case-insensitive, statements end at end-of-line (no continuations).
Multi-word statement heads (``end finish``, ``do while``, ...) are left
to the parser; the lexer only produces word/number/string/operator
tokens plus NEWLINE and EOF.  One regular expression per token class,
tried in order at each position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = {
    "program", "end", "function", "subroutine", "call", "if", "then",
    "else", "elseif", "do", "while", "finish", "spawn", "cofence",
    "copy_async", "integer", "real", "logical", "event", "lock", "team",
    "print", "return", "and", "or", "not", "true", "false", "exit",
    "cycle",
}

#: token class -> pattern; order matters (floats before integers,
#: multi-character operators before their prefixes)
_TOKENS = re.compile(r"""
    (?P<SKIP>    [ \t\r]+ | ! .* )
  | (?P<STRING>  " [^"]* " | ' [^']* ' )
  | (?P<FLOAT>   (?: \d+ \. \d* | \. \d+ ) (?: [eE] [+-]? \d+ )?
               | \d+ [eE] [+-]? \d+ )
  | (?P<INT>     \d+ )
  | (?P<WORD>    [^\W\d] \w* )
  | (?P<OP>      \*\* | == | /= | <= | >= | :: | [=<>+\-*/()\[\],:%] )
""", re.VERBOSE)


class LexError(SyntaxError):
    """Bad character or malformed literal."""


@dataclass(frozen=True)
class Token:
    kind: str      # KEYWORD, NAME, INT, FLOAT, STRING, OP, NEWLINE, EOF
    value: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, L{self.line})"


def tokenize(source: str) -> list[Token]:
    """Tokenize a whole program; raises :class:`LexError` with line
    information on bad input."""
    tokens: list[Token] = []
    lines = source.splitlines()
    for line_no, line in enumerate(lines, start=1):
        pos, first = 0, len(tokens)
        while pos < len(line):
            m = _TOKENS.match(line, pos)
            if m is None:
                if line[pos] in "\"'":
                    raise LexError(
                        f"line {line_no}: unterminated string literal")
                raise LexError(f"line {line_no}, column {pos + 1}: "
                               f"unexpected character {line[pos]!r}")
            kind, text = m.lastgroup, m.group()
            if kind == "STRING":
                text = text[1:-1]
            elif kind == "WORD":
                kind = "KEYWORD" if text.lower() in KEYWORDS else "NAME"
                if kind == "KEYWORD":
                    text = text.lower()
            if kind != "SKIP":
                tokens.append(Token(kind, text, line_no, pos))
            pos = m.end()
        if len(tokens) > first:
            tokens.append(Token("NEWLINE", "\n", line_no, len(line)))
    tokens.append(Token("EOF", "", len(lines) + 1, 0))
    return tokens
