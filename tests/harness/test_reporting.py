"""Unit tests for the reporting helpers."""

import pytest

from repro.harness.reporting import Table, format_seconds


class TestFormatSeconds:
    def test_ranges(self):
        assert format_seconds(0) == "0"
        assert format_seconds(2.5) == "2.500 s"
        assert format_seconds(3.25e-3) == "3.250 ms"
        assert format_seconds(4.2e-6) == "4.20 us"
        assert format_seconds(1.0) == "1.000 s"
        assert format_seconds(1e-3) == "1.000 ms"


class TestTable:
    def test_render_alignment(self):
        t = Table("demo", ["a", "long_header"])
        t.add_row([1, "x"])
        t.add_row([100, "yyy"])
        assert t.render().splitlines() == [
            "**demo**",
            "",
            "| a   | long_header |",
            "|-----|-------------|",
            "| 1   | x           |",
            "| 100 | yyy         |",
        ]

    def test_row_width_validation(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            t.add_row([1])

    def test_empty_table_renders(self):
        t = Table("empty", ["x"])
        assert "empty" in t.render()

    def test_print_smoke(self, capsys):
        t = Table("t", ["v"])
        t.add_row([7])
        t.print()
        out = capsys.readouterr().out
        assert "7" in out
