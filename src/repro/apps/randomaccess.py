"""HPC Challenge RandomAccess (paper §IV-B).

The benchmark applies read-modify-write updates (xor) to random entries
of a table distributed over all images.  The random index stream is the
exact HPCC sequence ``x ← (x << 1) ⊕ (x < 0 ? POLY : 0)`` over 64 bits
with POLY = 7, with the standard jump-ahead (:func:`hpcc_starts`) so each
image owns a disjoint segment of the stream.

Two implementations, as in the paper:

- **get-update-put** (the HPCC reference style): each update fetches the
  table word with a blocking one-sided get, xors locally, and writes it
  back with a put.  It is *racy* — an update by another image can land
  between the get and the put — and each update costs two network round
  trips.  A bounded window of in-flight updates models the RDMA pipeline.
- **function shipping**: each update ships a tiny function to the owner
  image, which performs the read-modify-write on local memory —
  atomically, since the handler runs to completion.  Updates are grouped
  into *bunches*; a ``finish`` block encloses each bunch (the paper
  sweeps the bunch size in Fig. 14 and the number of finish invocations
  in Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.sim.tasks import Semaphore, all_of

#: the HPCC polynomial
POLY = np.uint64(7)
_PERIOD = 1317624576693539401  # period of the HPCC sequence


def hpcc_starts(n: int) -> int:
    """The n-th element of the HPCC random stream (jump-ahead).

    Direct port of the reference ``HPCC_starts``: square-and-multiply
    over the GF(2) companion matrix of the polynomial.
    """
    n = int(n) % _PERIOD
    if n == 0:
        return 1

    m2 = [0] * 64
    temp = 1
    for i in range(64):
        m2[i] = temp
        for _ in range(2):
            temp = ((temp << 1) ^ (POLY_INT if temp & TOP_BIT else 0)) & MASK

    i = 62
    while i >= 0 and not (n >> i) & 1:
        i -= 1

    ran = 2
    while i > 0:
        temp = 0
        for j in range(64):
            if (ran >> j) & 1:
                temp ^= m2[j]
        ran = temp
        i -= 1
        if (n >> i) & 1:
            ran = ((ran << 1) ^ (POLY_INT if ran & TOP_BIT else 0)) & MASK
    return ran


POLY_INT = 7
TOP_BIT = 1 << 63
MASK = (1 << 64) - 1


def hpcc_stream(start: int, count: int) -> np.ndarray:
    """``count`` successive values of the HPCC sequence from ``start``
    (vectorizable 64-bit LFSR step, exact HPCC semantics)."""
    out = np.empty(count, dtype=np.uint64)
    ran = start
    for i in range(count):
        ran = ((ran << 1) ^ (POLY_INT if ran & TOP_BIT else 0)) & MASK
        out[i] = ran
    return out


@dataclass
class RAConfig:
    """Run parameters (paper scale: table 2^22..2^23 words per image,
    bunch sizes 16..2048; defaults scaled for simulation)."""

    #: log2 of the table words per image
    log2_local_table: int = 10
    #: updates issued per image
    updates_per_image: int = 256
    #: "get-update-put" or "function-shipping"
    variant: str = "function-shipping"
    #: updates per finish block (function-shipping variant)
    bunch_size: int = 64
    #: max in-flight updates (get-update-put variant's RDMA window)
    window: int = 16
    #: position in the HPCC sequence where image 0's stream starts.
    #: Starting from position 0 the LFSR state is extremely sparse
    #: (powers of x stay sparse under GF(2) squaring), so low-order
    #: index bits are mostly zero and scaled tables see every update
    #: hammer slot 0.  Real HPCC amortizes this over millions of
    #: updates; scaled runs start at a generic (non-power-of-two)
    #: position where the state is dense and indexes are uniform.
    stream_offset: int = 999_983

    def __post_init__(self) -> None:
        if self.variant not in ("get-update-put", "function-shipping"):
            raise ValueError(f"unknown RandomAccess variant {self.variant!r}")
        if self.log2_local_table <= 0 or self.updates_per_image <= 0:
            raise ValueError("table and update counts must be positive")
        if self.bunch_size <= 0 or self.window <= 0:
            raise ValueError("bunch_size and window must be positive")


@dataclass
class RAResult:
    sim_time: float
    total_updates: int
    gups: float
    #: xor-reduction over the final table (for cross-variant checksums)
    checksum: int
    finish_blocks: int
    #: table entries that differ from a sequential re-application of the
    #: update stream (HPCC verification; nonzero = racy updates lost).
    #: None when verification was not requested.
    errors: Optional[int] = None
    #: chaos-mode transport counters (zero on a clean network)
    retransmits: int = 0
    drops: int = 0
    dups: int = 0
    #: race-detector findings (0 unless racecheck was enabled AND racy)
    races: int = 0

    @property
    def error_rate(self) -> Optional[float]:
        """HPCC accepts a run when < 1% of updates were lost."""
        if self.errors is None:
            return None
        return self.errors / self.total_updates


def _owner_and_index(ran: np.ndarray, n_images: int, local_size: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    global_index = ran & np.uint64(n_images * local_size - 1)
    owner = (global_index // np.uint64(local_size)).astype(np.int64)
    local = (global_index % np.uint64(local_size)).astype(np.int64)
    return owner, local


def _update_entry(img, index: int, value: int) -> Generator[Any, Any, None]:
    """Shipped read-modify-write: runs where the table entry lives, so
    the get and put become local loads/stores and the update is atomic
    (§IV-B)."""
    table = img.machine.coarray_by_name("ra_table")
    local = table.local_at(img.rank)
    local[index] = np.uint64(local[index]) ^ np.uint64(value)
    yield from img.compute(2e-8)


def _kernel_function_shipping(img, config: RAConfig
                              ) -> Generator[Any, Any, int]:
    local_size = 2 ** config.log2_local_table
    stream = hpcc_stream(
        hpcc_starts(config.stream_offset
                    + config.updates_per_image * img.rank),
        config.updates_per_image)
    owners, locals_ = _owner_and_index(stream, img.nimages, local_size)

    finish_blocks = 0
    for start in range(0, config.updates_per_image, config.bunch_size):
        yield from img.finish_begin()
        finish_blocks += 1
        stop = min(start + config.bunch_size, config.updates_per_image)
        for i in range(start, stop):
            yield from img.compute(5e-8)  # index generation
            yield from img.spawn(_update_entry, int(owners[i]),
                                 int(locals_[i]), int(stream[i]))
        yield from img.finish_end()
    return finish_blocks


def _kernel_get_update_put(img, config: RAConfig
                           ) -> Generator[Any, Any, int]:
    table = img.machine.coarray_by_name("ra_table")
    local_size = 2 ** config.log2_local_table
    stream = hpcc_stream(
        hpcc_starts(config.stream_offset
                    + config.updates_per_image * img.rank),
        config.updates_per_image)
    owners, locals_ = _owner_and_index(stream, img.nimages, local_size)

    window = Semaphore(img.machine.sim, config.window, name="ra.window")
    in_flight = []

    def one_update(owner: int, index: int, value: int):
        # get -> local xor -> put: two dependent round trips, racy by
        # construction (another image can write between them).
        current = yield from img.get(table.ref(owner, index))
        updated = int(np.uint64(current) ^ np.uint64(value))
        yield from img.put(table.ref(owner, index), np.uint64(updated))
        window.release()

    for i in range(config.updates_per_image):
        yield from img.compute(5e-8)
        yield from window.acquire()
        task = img.machine.start_internal_task(
            one_update(int(owners[i]), int(locals_[i]), int(stream[i])),
            name=f"ra.update@{img.rank}",
        )
        in_flight.append(task.done_future)
    if in_flight:
        yield all_of(in_flight, "ra.drain")
    yield from img.barrier()
    return 0


def ra_kernel(img, config: RAConfig) -> Generator[Any, Any, int]:
    """SPMD main program; returns the number of finish blocks used."""
    if config.variant == "function-shipping":
        blocks = yield from _kernel_function_shipping(img, config)
    else:
        blocks = yield from _kernel_get_update_put(img, config)
    yield from img.barrier()
    return blocks


def reference_table(n_images: int, config: RAConfig) -> np.ndarray:
    """Sequentially apply every image's update stream to a fresh table —
    the HPCC verification oracle (race-free by construction)."""
    local_size = 2 ** config.log2_local_table
    table = np.arange(n_images * local_size, dtype=np.uint64)
    for r in range(n_images):
        stream = hpcc_stream(
            hpcc_starts(config.stream_offset
                        + config.updates_per_image * r),
            config.updates_per_image)
        index = stream & np.uint64(len(table) - 1)
        # np.bitwise_xor.at handles repeated indices correctly
        np.bitwise_xor.at(table, index.astype(np.int64), stream)
    return table


def _ra_setup(machine) -> None:
    config = machine.scratch["ra.setup_config"]
    local_size = 2 ** config.log2_local_table
    machine.coarray("ra_table", shape=local_size, dtype=np.uint64)
    # HPCC initialization: table[i] = global index i
    table = machine.coarray_by_name("ra_table")
    for r in range(machine.n_images):
        table.local_at(r)[:] = np.arange(
            r * local_size, (r + 1) * local_size, dtype=np.uint64)


def _ra_finalize(machine, rank: int) -> np.ndarray:
    """Post-run probe of one rank, run where its machine lives: a copy
    of its final table slice (from a worker, it travels home)."""
    return machine.coarray_by_name("ra_table").local_at(rank).copy()


def run_randomaccess(n_images: int, config: Optional[RAConfig] = None,
                     params=None, seed: int = 0,
                     verify: bool = False, faults=None,
                     racecheck: bool = False,
                     backend: str = "sim") -> RAResult:
    """Run RandomAccess; returns timing and the table checksum.

    With ``verify=True`` the final table is compared against a
    sequential re-application of the full update stream (HPCC's
    verification phase): the function-shipping variant must come back
    error-free, the racy get-update-put variant may lose updates.

    ``backend="process"`` runs the same kernel on real OS processes and
    assembles the table from each worker's slice; the xor checksum (and,
    for function shipping, the whole table) is schedule-invariant and
    must match the simulator — the cross-validation oracle (DESIGN §14).
    """
    from repro.runtime.program import run_spmd

    config = config if config is not None else RAConfig()
    if n_images & (n_images - 1):
        raise ValueError("RandomAccess needs a power-of-two image count")

    def setup(machine):
        machine.scratch["ra.setup_config"] = config
        _ra_setup(machine)

    run, blocks = run_spmd(
        ra_kernel, n_images, params=params, seed=seed, args=(config,),
        setup=setup, faults=faults, racecheck=racecheck,
        finalize=_ra_finalize, backend=backend)
    slices = run.extras
    checksum = 0
    for arr in slices:
        checksum ^= int(np.bitwise_xor.reduce(arr))
    total = config.updates_per_image * n_images
    errors = None
    if verify:
        expected = reference_table(n_images, config)
        errors = int(np.count_nonzero(np.concatenate(slices) != expected))
    now = run.sim.now
    return RAResult(
        sim_time=now,
        total_updates=total,
        gups=total / now / 1e9 if now else 0.0,
        checksum=checksum,
        finish_blocks=sum(blocks),
        errors=errors,
        retransmits=run.stats["net.retransmits"],
        drops=run.stats["net.drops"],
        dups=run.stats["net.dups"],
        races=(run.racecheck.race_count if racecheck else 0),
    )
