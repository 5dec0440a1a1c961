"""Cross-validation: real OS processes vs the simulator oracle.

The tentpole claim of the process backend (DESIGN.md §14) is that the
*same* CAF programs produce the *same* answers on real processes as
under the deterministic simulator.  These tests run the full runtime
stack — barriers, collectives, remote spawn under finish, copy_async —
across 2–4 forked workers and compare fingerprint quantities (node
counts, checksums) bit-for-bit against the sim oracle and against
sequential ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.randomaccess import RAConfig, run_randomaccess
from repro.apps.uts import (TreeParams, UTSConfig, run_uts,
                            sequential_tree_size)
from repro.runtime.program import run_spmd

pytestmark = pytest.mark.parallel


# --------------------------------------------------------------------- #
# Primitive round-trips on real processes
# --------------------------------------------------------------------- #

def _setup_table(machine):
    machine.coarray("tbl", shape=(8,), dtype=np.int64)


def _spawned_add(img, value):
    tbl = img.machine.coarray_by_name("tbl")
    tbl.local_at(img.rank)[0] += value
    yield from img.compute(1e-6)


def _primitives_kernel(img):
    n = img.machine.n_images
    tbl = img.machine.coarray_by_name("tbl")
    tbl.local_at(img.rank)[:] = 0
    yield from img.barrier()
    total = yield from img.allreduce(float(img.rank + 1))
    yield from img.finish_begin()
    yield from img.spawn(_spawned_add, (img.rank + 1) % n, 10 + img.rank)
    yield from img.finish_end()
    yield from img.barrier()
    got = int(tbl.local_at(img.rank)[0])
    dst = (img.rank + 1) % n
    op = img.copy_async(tbl.ref(dst, slice(1, 2)),
                        np.asarray([img.rank], dtype=np.int64))
    yield op.global_done
    yield from img.barrier()
    return (total, got, int(tbl.local_at(img.rank)[1]))


def test_primitives_on_four_processes():
    """Barrier, allreduce, remote spawn under finish, remote copy_async
    put — every value lands where the ring topology says it must."""
    run, results = run_spmd(_primitives_kernel, 4, setup=_setup_table,
                            backend="process")
    for r in range(4):
        total, got, neighbor = results[r]
        assert total == 10.0  # 1+2+3+4
        assert got == 10 + (r - 1) % 4  # spawned increment from left peer
        assert neighbor == (r - 1) % 4  # copy_async put from left peer
    assert not run.dead_images


def _tree_kernel(img):
    n = img.machine.n_images
    # values of unequal size, so a wrong forwarded size shows in the bytes
    everyone = yield from img.allgather((img.rank, list(range(img.rank))))
    mine = yield from img.scatter(
        [list(range(j + 1)) for j in range(n)] if img.rank == 1 else None,
        root=1)
    # and the per-pair rows
    column = yield from img.alltoall(
        [list(range(img.rank + j)) for j in range(n)])
    top = yield from img.ring_allreduce(np.arange(6.0) * (img.rank - 1),
                                        op="max")
    bulk = np.arange(10.0) if img.rank == 2 else np.zeros(10)
    yield from img.pipelined_broadcast(bulk, root=2, segments=4)
    return everyone, mine, column, top.tolist(), bulk.tolist()


def test_tree_collectives_match_sim_oracle():
    """An image forwards a collective's down value with the size its own
    message arrived with; on processes that size comes off the conduit
    frame.  The workers' ``net.bytes`` (``run.stats`` sums them) must
    add up to the simulator's, for the per-pair rows too."""
    sim, expected = run_spmd(_tree_kernel, 4)
    run, results = run_spmd(_tree_kernel, 4, backend="process")
    assert results == expected
    assert results[2] == ([(r, list(range(r))) for r in range(4)], [0, 1, 2],
                          [list(range(r + 2)) for r in range(4)],
                          (np.arange(6.0) * 2).tolist(),
                          np.arange(10.0).tolist())
    assert run.stats["net.bytes"] == sim.stats["net.bytes"]
    assert not run.dead_images


# --------------------------------------------------------------------- #
# Application oracles
# --------------------------------------------------------------------- #

def test_uts_matches_sim_oracle_and_ground_truth():
    config = UTSConfig(tree=TreeParams(b0=2.0, max_depth=4, seed=19),
                       node_cost=0.0)
    truth = sequential_tree_size(config.tree)
    sim = run_uts(4, config, seed=3)
    proc = run_uts(4, config, seed=3, backend="process")
    assert sim.total_nodes == truth
    assert proc.total_nodes == truth
    assert not proc.failed_images


def test_randomaccess_matches_sim_oracle():
    config = RAConfig(log2_local_table=6, updates_per_image=64)
    sim = run_randomaccess(4, config, verify=True)
    proc = run_randomaccess(4, config, verify=True, backend="process")
    # The update stream is seeded per-rank, so the xor checksum over the
    # final table is a fingerprint of every remote update's effect.
    assert proc.checksum == sim.checksum
    assert proc.errors == 0
    assert sim.errors == 0


def test_uts_answer_independent_of_process_count():
    """The tree count is a property of (tree, seed), not of how many
    workers carve it up — 2 processes must agree with 4 and with truth."""
    config = UTSConfig(tree=TreeParams(b0=2.0, max_depth=3, seed=5),
                       node_cost=0.0)
    truth = sequential_tree_size(config.tree)
    proc = run_uts(2, config, seed=1, backend="process")
    assert proc.total_nodes == truth


# --------------------------------------------------------------------- #
# Substrate protocol
# --------------------------------------------------------------------- #

def test_both_substrates_satisfy_the_protocol():
    """The runtime layers drive their scheduler only through the
    Substrate surface; both implementations must satisfy it."""
    from repro.backend.realtime import RealtimeScheduler
    from repro.backend.substrate import Substrate
    from repro.sim.engine import Simulator

    assert isinstance(Simulator(), Substrate)
    assert isinstance(RealtimeScheduler(), Substrate)


# --------------------------------------------------------------------- #
# Sim-only features refuse the process backend loudly
# --------------------------------------------------------------------- #

def test_sim_only_features_rejected():
    config = UTSConfig(tree=TreeParams(b0=2.0, max_depth=3, seed=5),
                       node_cost=0.0)
    with pytest.raises(ValueError, match="simulator"):
        run_uts(2, config, backend="process", racecheck=True)
