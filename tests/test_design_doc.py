"""DESIGN.md stays the map of the system.

Every section reference written as ``DESIGN`` or ``DESIGN.md`` followed by
a section sign, anywhere in the code, tests, benchmarks, top-level docs, CI
files or `.claude/` notes, must name a heading of DESIGN.md, and so must every
section sign inside DESIGN.md itself.  Every ``tests/`` path DESIGN.md
names must exist, down to the class and function after ``::``, and every
numbered section must name at least one test.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DESIGN = ROOT / "DESIGN.md"
#: where references to DESIGN.md sections may live
SCANNED = ("src", "tests", "benchmarks", ".github", ".claude", "README.md",
           "EXPERIMENTS.md", "LANGUAGE.md")
SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".txt", ".cfg"}

_NUM = r"(\d+(?:\.\d+)?)"
#: a reference: the document name, then (across a line break and comment
#: markers, if need be) a section sign and a number, then more numbers
#: joined by a range, a product or "and" (``§11-§12``, ``§14.1–14.2``,
#: ``§10 × §12``)
_REF = re.compile(r"DESIGN(?:\.md)?[\s#*\"']*§\s?" + _NUM
                  + r"((?:(?:\s*(?:[-–×]|\bx\b|\band\b)\s*§?\s?|\s*,\s*§\s?)"
                  + r"\d+(?:\.\d+)?)*)")
_MORE = re.compile(_NUM)
_HEADING = re.compile(r"^#{2,3}\s+" + _NUM + r"\.?\s", re.M)
_TEST_PATH = re.compile(r"(tests/[\w/]+(?:\.py)?/?)((?:::\w+)*)")


def _headings() -> set[str]:
    return set(_HEADING.findall(DESIGN.read_text()))


def _scanned_files():
    for name in SCANNED:
        path = ROOT / name
        if path.is_file():
            yield path
        elif path.is_dir():
            for f in sorted(path.rglob("*")):
                if (f.is_file() and f.suffix in SUFFIXES
                        and "__pycache__" not in f.parts):
                    yield f


def _references(text: str) -> list[str]:
    out = []
    for m in _REF.finditer(text):
        out.append(m.group(1))
        out.extend(_MORE.findall(m.group(2)))
    return out


def test_the_reference_pattern_reads_every_written_form():
    assert _references("see DESIGN.md §3.3 and DESIGN §11-§12") == [
        "3.3", "11", "12"]
    assert _references("(DESIGN.md §14.1–14.2), DESIGN §10 × §12") == [
        "14.1", "14.2", "10", "12"]
    assert _references("DESIGN.md\n# §9.2, \"The collector\"") == ["9.2"]
    assert _references("DESIGN.md §14.5, pitfall 1") == ["14.5"]


def test_sections_are_numbered_one_to_n():
    top = [int(n) for n in _headings() if "." not in n]
    assert sorted(top) == list(range(1, len(top) + 1)) and len(top) >= 15


def test_every_reference_names_a_heading():
    headings = _headings()
    dangling = []
    for path in _scanned_files():
        for number in _references(path.read_text(errors="replace")):
            if number not in headings:
                dangling.append(f"{path.relative_to(ROOT)}: §{number}")
    text = DESIGN.read_text()
    for number in re.findall(r"§\s?" + _NUM, text):
        if number not in headings:
            dangling.append(f"DESIGN.md: §{number}")
    assert dangling == []


def _named_tests() -> list[tuple[str, str]]:
    return _TEST_PATH.findall(DESIGN.read_text())


@pytest.mark.parametrize("path,members", sorted(set(_named_tests())))
def test_every_named_test_exists(path, members):
    target = ROOT / path
    assert target.exists(), path
    if members:
        source = target.read_text()
        for name in members.strip(":").split("::"):
            assert re.search(rf"^\s*(?:class|def)\s+{name}\b", source,
                             re.M), f"{path}{members}"


def test_every_section_names_a_test():
    sections = re.split(r"^## ", DESIGN.read_text(), flags=re.M)[1:]
    bare = [s.splitlines()[0] for s in sections if "tests/" not in s]
    assert bare == []
