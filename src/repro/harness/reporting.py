"""Plain-text reporting for experiment results.

Every experiment renders the rows/series the paper's plot shows as one
:class:`Table` in GitHub markdown — the console, the ``--out`` report
and EXPERIMENTS.md carry the same bytes.  Keeping this purely textual
keeps the harness free of plotting dependencies.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_seconds(t: float) -> str:
    """Human-scale formatting for simulated durations."""
    if t == 0:
        return "0"
    if t >= 1.0:
        return f"{t:.3f} s"
    if t >= 1e-3:
        return f"{t * 1e3:.3f} ms"
    return f"{t * 1e6:.2f} us"


class Table:
    """A titled, column-aligned markdown table.

    >>> t = Table("demo", ["p", "time"])
    >>> t.add_row([4, "1.0 ms"])
    >>> print(t.render())
    **demo**
    <BLANKLINE>
    | p | time   |
    |---|--------|
    | 4 | 1.0 ms |
    """

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = [str(c) for c in columns]
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        cells = [str(c) for c in row]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [max(len(cell) for cell in column)
                  for column in zip(self.columns, *self.rows)]

        def line(cells):
            return "| " + " | ".join(
                c.ljust(w) for c, w in zip(cells, widths)) + " |"

        return "\n".join([f"**{self.title}**", "", line(self.columns),
                          "|" + "|".join("-" * (w + 2) for w in widths) + "|",
                          *map(line, self.rows)])

    def print(self) -> None:
        print(self.render())
        print()
