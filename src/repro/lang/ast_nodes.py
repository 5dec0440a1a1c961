"""Abstract syntax tree for the CAF 2.0 surface dialect.

All nodes are frozen dataclasses; the lowering (:mod:`repro.lang.lower`)
dispatches on type.  Statements carry the source line they start on, for
compile errors; it takes no part in equality.
``Index`` captures Fortran-style selections ``a(i)``, ``a(lo:hi)`` and
the co-dimension ``a(i)[p]`` that addresses another image's section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# --------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Num:
    value: Union[int, float]


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Slice:
    """``lo:hi`` inside an index (1-based, inclusive, Fortran-style);
    either bound may be omitted."""
    lo: Optional["Expr"]
    hi: Optional["Expr"]


@dataclass(frozen=True)
class Index:
    """``base(sel)[image]`` — sel and image both optional."""
    base: "Expr"
    selector: Optional[Union["Expr", Slice]]
    image: Optional["Expr"]


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple = ()


Expr = Union[Num, Str, Bool, Var, Index, BinOp, UnaryOp, Call]


# --------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Stmt:
    """Base of every statement node."""
    line: int = field(default=0, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Decl(Stmt):
    """``integer :: a, b(8), c(4)[*]`` parses to one Decl per name."""
    type_name: str           # integer | real | logical | event | lock | team
    name: str
    shape: Optional[Expr]    # array extent or None for scalars
    codimension: bool        # declared with [*] (coarray / team event)


@dataclass(frozen=True)
class Assign(Stmt):
    target: Expr             # Var or Index (possibly remote)
    value: Expr


@dataclass(frozen=True)
class CallStmt(Stmt):
    call: Call


@dataclass(frozen=True)
class If(Stmt):
    condition: Expr
    then_body: tuple
    else_body: tuple


@dataclass(frozen=True)
class Do(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr]
    body: tuple


@dataclass(frozen=True)
class DoWhile(Stmt):
    condition: Expr
    body: tuple


@dataclass(frozen=True)
class Exit(Stmt):
    """``exit`` — leave the innermost loop."""


@dataclass(frozen=True)
class Cycle(Stmt):
    """``cycle`` — next iteration of the innermost loop."""


@dataclass(frozen=True)
class Finish(Stmt):
    body: tuple
    team: Optional[Expr] = None


@dataclass(frozen=True)
class Cofence(Stmt):
    downward: Optional[str]
    upward: Optional[str]


@dataclass(frozen=True)
class CopyAsync(Stmt):
    dest: Expr
    src: Expr
    events: tuple            # up to (pre, src_event, dest_event)


@dataclass(frozen=True)
class Spawn(Stmt):
    """``spawn name(args) [image]`` with optional completion event:
    ``spawn(e) name(args) [image]``."""
    function: str
    args: tuple
    image: Expr
    event: Optional[Expr]


@dataclass(frozen=True)
class Print(Stmt):
    values: tuple


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr]



# --------------------------------------------------------------------- #
# Program structure
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FunctionDef:
    name: str
    params: tuple
    body: tuple


@dataclass(frozen=True)
class Program:
    name: str
    body: tuple
    functions: dict = field(default_factory=dict)
