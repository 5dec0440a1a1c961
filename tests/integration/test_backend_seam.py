"""The seam between the two backends stays where it was put.

One runtime runs over two (substrate, transport) pairs (DESIGN.md
§14.1-14.2): the Machine picks the pair in one place, the launchers
dispatch once each, the send gate / membership / quarantine live in one
base class, and the liveness report asks the transport for a snapshot.
Each of those is easy to erode one convenient ``if backend == ...`` at a
time, so this reads the source — nothing is imported or run — and fails
when a count regrows.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SOURCES = {path.relative_to(SRC).as_posix(): path.read_text()
           for path in sorted(SRC.rglob("*.py"))}

#: where a comparison against the backend name is allowed, and how often:
#: the Machine's one (substrate, transport) site, and the one launcher's
#: dispatch in run_spmd (the apps pass their backend through it)
BACKEND_SITES = {"runtime/program.py": 2}

#: the membership/quarantine half of the transport contract
CONTRACT_METHODS = ("_fail_fresh_send", "_park", "mark_suspect",
                    "unmark_suspect", "confirm_dead", "unconfirm",
                    "mark_dead", "_fail_quarantined")

#: what only the simulated wire has; the conduit transport must not
#: grow stand-ins for them
NETWORK_ONLY = ("faults", "tracer", "lost", "link_retransmits",
                "_tx_pending", "schedule_source")


def test_backend_name_is_compared_at_the_allowed_sites_only():
    found = {name: len(re.findall(r"backend\s*(?:==|!=)", text))
             for name, text in SOURCES.items()}
    found = {name: n for name, n in found.items() if n}
    assert found == BACKEND_SITES, (
        "a new branch on the backend name: ask the part (the substrate, "
        "the transport, machine.remote_ranks) instead")


def test_each_contract_method_is_written_once():
    for method in CONTRACT_METHODS:
        homes = [name for name, text in SOURCES.items()
                 for _ in re.findall(rf"def {method}\b", text)]
        assert homes == ["net/transport.py"], (method, homes)


def test_conduit_transport_has_no_network_stand_ins():
    text = SOURCES["backend/transport.py"]
    assigned = re.findall(
        rf"self\.({'|'.join(NETWORK_ONLY)})\b\s*(?::[^=\n]*)?=(?!=)", text)
    assert assigned == []
    assert "def nic_busy_until" not in text


def test_stall_report_asks_for_the_snapshot():
    """No ``getattr(machine|net, ..., default)`` probing and no reaching
    into the transport's private state: whatever the report needs of a
    transport is in ``diagnostics()``."""
    tree = ast.parse(SOURCES["core/finish.py"])
    report = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "stall_report")

    def root(node):
        while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
            node = node.func if isinstance(node, ast.Call) else node.value
        return getattr(node, "id", None)

    for node in ast.walk(report):
        if (isinstance(node, ast.Call) and root(node) == "getattr"
                and len(node.args) == 3):
            assert root(node.args[0]) not in ("machine", "net"), (
                ast.unparse(node))
        if isinstance(node, ast.Attribute) and root(node.value) == "net":
            assert not node.attr.startswith("_"), ast.unparse(node)
    assert "diagnostics()" in ast.unparse(report)
