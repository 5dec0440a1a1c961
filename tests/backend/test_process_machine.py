"""A process-backend Machine built in this process, over a list conduit.

Nothing here forks: what a worker's machine is made of — the wall-clock
substrate, the conduit transport, the registration path — is checked
where it is assembled, and what that assembly refuses is refused before
any launcher gets as far as a fork (DESIGN.md §14.1).
"""

from __future__ import annotations

import inspect

import pytest

from repro.apps.randomaccess import RAConfig, run_randomaccess
from repro.apps.uts import TreeParams, UTSConfig, run_uts
from repro.backend.parallel import ProcessRunner
from repro.backend.wire import dump_frame, load_frame
from repro.explore.schedule import DefaultSource
from repro.net.faults import FaultPlan
from repro.runtime.program import Machine, run_spmd


class ListConduit:
    """``put`` appends to per-rank lists; nobody reads them."""

    def __init__(self, rank: int, n: int):
        self.rank = rank
        self.inboxes = [[] for _ in range(n)]

    def put(self, dst: int, item: tuple) -> None:
        self.inboxes[dst].append(item)


def process_machine(n=2, rank=0, **kwargs):
    return Machine(n, backend="process", conduit=ListConduit(rank, n),
                   local_ranks=(rank,), **kwargs)


#: one handler name per family (``runtime.program._FAMILIES``)
FAMILY_NAMES = ("spawn.exec", "copy.put", "coll.up", "ft.report",
                "term.vector.report", "lock.acquire")


def test_one_registration_path_on_both_backends():
    """The handlers installed at construction are the same on both
    backends, the event notifications alone; a family installs, whole,
    the first time one of its names is requested — with no per-operation
    guard in the family's module — and an unknown name stays a
    KeyError."""
    sim, proc = Machine(2), process_machine()
    assert set(sim.am._handlers) == set(proc.am._handlers) == {
        "event.post", "event.fire"}
    for machine in (sim, proc):
        for name in FAMILY_NAMES:
            assert name not in machine.am._handlers
            machine.am.request_nb(0, 0, name)
            assert name in machine.am._handlers
        with pytest.raises(KeyError, match="unknown AM handler"):
            machine.am.request_nb(0, 0, "spawn.bogus")
    assert set(sim.am._handlers) == set(proc.am._handlers)
    assert {"copy.done", "coll.down", "coll.pair", "ft.verdict",
            "term.vector.done", "lock.grant"} <= set(sim.am._handlers)


def test_inbound_message_of_a_family_never_used_locally_is_served():
    """What the process backend needs of the path: a worker can be sent
    an AM of a protocol it has not used yet (a lock request lands before
    this rank ever touched a lock)."""
    machine = process_machine()
    machine.make_lock(name="L")
    assert "lock.acquire" not in machine.am._handlers
    request = ("lock.acquire", 0, "lock.acquire", ("L", 7), None)
    machine.network.deliver_frame(
        ("am", 1, 0, False, dump_frame(machine, request)))
    # the free lock was granted: the grant went out on the conduit
    (tag, src, _seq, _want_ack, blob), = machine.network.conduit.inboxes[1]
    assert (tag, src) == ("am", 0)
    assert load_frame(machine, blob)[2:] == ("lock.grant", (7,), None)


def test_hosting_follows_from_local_ranks():
    sim, proc = Machine(4), process_machine(4, rank=2)
    assert list(sim.local_ranks) == [0, 1, 2, 3] and not sim.remote_ranks
    assert list(proc.local_ranks) == [2] and proc.remote_ranks == [0, 1, 3]
    # spawn ids stay unique across machines without coordination
    assert [sim.next_spawn_id() for _ in range(3)] == [0, 4, 8]
    assert [proc.next_spawn_id() for _ in range(3)] == [2, 6, 10]
    with pytest.raises(RuntimeError, match="hosts every rank"):
        proc.run()


# --------------------------------------------------------------------- #
# Simulator-only features: refused by the part that cannot do them
# --------------------------------------------------------------------- #

def _kernel(img):
    yield from img.barrier()


SIM_ONLY = {
    "faults": lambda: FaultPlan(drop=0.1, seed=1),
    "racecheck": lambda: True,
    "schedule": DefaultSource,
    "max_events": lambda: 1000,
}

LAUNCHERS = {
    "Machine": (Machine, lambda **kw: process_machine(**kw)),
    "run_spmd": (run_spmd,
                 lambda **kw: run_spmd(_kernel, 2, backend="process", **kw)),
    "run_uts": (run_uts, lambda **kw: run_uts(
        2, UTSConfig(tree=TreeParams(b0=2.0, max_depth=3, seed=5)),
        backend="process", **kw)),
    "run_randomaccess": (run_randomaccess, lambda **kw: run_randomaccess(
        2, RAConfig(log2_local_table=4, updates_per_image=8),
        backend="process", **kw)),
}

#: every (launcher, feature) pair the launcher's signature offers
MATRIX = [(name, feature) for name, (fn, _call) in LAUNCHERS.items()
          for feature in SIM_ONLY
          if feature in inspect.signature(fn).parameters]


def test_matrix_covers_the_three_features_on_every_launcher():
    assert {"faults", "racecheck"} <= {f for n, f in MATRIX if n == "run_uts"}
    assert len(MATRIX) == 3 + 4 + 2 + 2


@pytest.mark.parametrize("launcher,feature", MATRIX)
def test_sim_only_feature_refused_before_any_fork(launcher, feature,
                                                  monkeypatch):
    def no_fork(self):
        raise AssertionError("a process launch was started")

    monkeypatch.setattr(ProcessRunner, "start", no_fork)
    with pytest.raises(ValueError, match="simulator"):
        LAUNCHERS[launcher][1](**{feature: SIM_ONLY[feature]()})
