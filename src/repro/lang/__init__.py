"""A CAF 2.0 surface-syntax frontend.

The paper's constructs are *language* constructs — ``finish``/``end
finish`` blocks, ``cofence(DOWNWARD=WRITE)``, ``spawn foo(A[p])[p]``,
predicated ``copy_async`` — embedded in a Fortran dialect.  This package
translates that surface syntax onto the runtime so the paper's program
listings run (almost) verbatim:

- :mod:`repro.lang.lexer` — tokens for a line-oriented Fortran-ish
  dialect (case-insensitive keywords, ``!`` comments);
- :mod:`repro.lang.ast_nodes` — the abstract syntax tree;
- :mod:`repro.lang.parser` — recursive-descent parser;
- :mod:`repro.lang.lower` — lowers a program, once, to one generator
  function per program unit: the main program becomes an SPMD kernel,
  each function a shippable generator function.

Entry points::

    from repro.lang import run_program
    machine, results, prints = run_program(source, n_images=8)

    from repro.lang import compile_program
    program = compile_program(source)
    machine, results = run_spmd(program.kernel, 8,
                                setup=program.allocate, racecheck=True)

See ``examples/caf/`` for runnable programs, including the paper's
Fig. 3 work-stealing function and Fig. 11 micro-benchmark.
"""

from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import ParseError, parse
from repro.lang.lower import (CafError, CompiledProgram, compile_program,
                              run_program)

__all__ = [
    "tokenize",
    "LexError",
    "parse",
    "ParseError",
    "compile_program",
    "CompiledProgram",
    "run_program",
    "CafError",
]
