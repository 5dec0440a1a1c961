"""Assertions for the paper's Fig. 4 completion-semantics matrix.

Each test pins one cell of the table: operation type x image role x
completion level (local data / local operation / global).
"""

import numpy as np
import pytest

from repro import FaultPlan, PeerFailedError, run_spmd


def _setup(m):
    m.coarray("T", shape=8, dtype=np.float64)


class TestAsyncBroadcastRow:
    def test_root_local_data_means_buffer_reusable(self, spmd, fast_params):
        """Root row: at local data completion the root's buffer can be
        safely modified without corrupting the broadcast."""

        def kernel(img):
            buf = np.zeros(4)
            if img.rank == 0:
                buf[:] = 5.0
                op = img.broadcast_async(buf, root=0)
                yield op.local_data
                buf[:] = -1.0  # overwrite immediately after LDC
            else:
                op = img.broadcast_async(buf, root=0)
                yield op.local_data
            yield from img.barrier()
            return buf.tolist()

        _m, results = spmd(kernel, n=4, params=fast_params(4))
        # every participant still received the original data
        for r in range(1, 4):
            assert results[r] == [5.0] * 4

    def test_participant_local_data_means_data_readable(self, spmd):
        def kernel(img):
            buf = np.zeros(4)
            if img.rank == 0:
                buf[:] = 9.0
            op = img.broadcast_async(buf, root=0)
            yield op.local_data
            return buf.tolist()

        _m, results = spmd(kernel, n=4)
        assert results == [[9.0] * 4] * 4

    def test_local_op_means_pairwise_comm_complete(self, spmd, fast_params):
        """Local operation completion on any image: its sends are acked
        and its receive happened — strictly later than local data on an
        interior node."""
        times = {}

        def kernel(img):
            buf = np.zeros(4)
            op = img.broadcast_async(buf, root=0)
            yield op.local_data
            t_ld = img.now
            yield op.local_op
            times[img.rank] = (t_ld, img.now)
            yield from img.barrier()

        spmd(kernel, n=8, params=fast_params(8))
        for rank, (t_ld, t_lo) in times.items():
            assert t_ld <= t_lo
        # rank 1 is an interior node (forwards to children): its ack wait
        # makes local_op strictly later than local_data
        assert times[1][0] < times[1][1]

    def test_global_completion_via_finish(self, spmd):
        """Finish column: after end finish the broadcast data is ready on
        every participating image."""

        def kernel(img):
            buf = np.zeros(4)
            if img.rank == 0:
                buf[:] = 3.0
            yield from img.finish_begin()
            img.broadcast_async(buf, root=0)
            yield from img.finish_end()
            return buf.tolist()

        _m, results = spmd(kernel, n=8)
        assert results == [[3.0] * 4] * 8


class TestAsyncCopyRow:
    def test_reading_from_local_buffer_ldc_means_source_writable(
            self, spmd, fast_params):
        """Copy row 1: local data completion of a copy reading a local
        buffer means the source may be overwritten."""

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                src = np.full(8, 1.0)
                op = img.copy_async(T.ref(1), src)
                yield op.local_data
                src[:] = -7.0  # must not corrupt the in-flight copy
                yield op.global_done
            yield from img.barrier()
            return T.local_at(img.rank).tolist()

        _m, results = spmd(kernel, n=2, setup=_setup,
                           params=fast_params(2))
        assert results[1] == [1.0] * 8

    def test_writing_to_local_buffer_ldc_means_dest_readable(self, spmd):
        """Copy row 2: local data completion of a copy writing a local
        buffer means the destination may be read."""

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            T.local_at(img.rank)[:] = img.rank + 1.0
            yield from img.barrier()
            if img.rank == 0:
                dst = np.zeros(8)
                op = img.copy_async(dst, T.ref(1))
                yield op.local_data
                return dst.tolist()
            yield from img.compute(1e-5)
            return None

        _m, results = spmd(kernel, n=2, setup=_setup)
        assert results[0] == [2.0] * 8


class TestSpawnRow:
    def test_initiator_ldc_means_args_evaluated(self, spmd, fast_params):
        """Spawn row: at local data completion the initiator's argument
        buffers may be overwritten."""
        seen = []

        def remote(img, payload):
            seen.append(payload.tolist())
            yield from img.compute(1e-7)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                args = np.array([1.0, 2.0])
                op = yield from img.spawn(remote, 1, args)
                yield op.local_data
                args[:] = -1.0
            yield from img.finish_end()

        spmd(kernel, n=2, params=fast_params(2))
        assert seen == [[1.0, 2.0]]

    def test_local_op_means_spawn_complete_on_target(self, spmd,
                                                     fast_params):
        """Spawn row, events column: local operation completion is the
        spawn's delivery at the target image."""
        delivery_time = {}

        def remote(img):
            delivery_time.setdefault("arrived", img.now)
            yield from img.compute(1e-4)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                op = yield from img.spawn(remote, 1)
                yield op.local_op
                delivery_time["acked"] = img.now
            yield from img.finish_end()

        spmd(kernel, n=2, params=fast_params(2))
        # ack comes after arrival but before the 100us execution finishes
        assert delivery_time["arrived"] < delivery_time["acked"]
        assert delivery_time["acked"] < delivery_time["arrived"] + 1e-4

    def test_finish_covers_transitively_spawned_implicit_ops(self, spmd):
        """Spawn row, finish column: any implicit async op initiated by
        the shipped function is globally complete at end finish."""

        def remote(img):
            T = img.machine.coarray_by_name("T")
            img.copy_async(T.ref(0), np.full(8, 6.0))  # implicit
            yield from img.compute(1e-7)

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1)
            yield from img.finish_end()
            return T.local_at(0).tolist()

        _m, results = spmd(kernel, n=2, setup=_setup)
        assert results[0] == [6.0] * 8
        assert results[1] == [6.0] * 8


def _noop(img):
    yield from img.compute(1e-7)


class TestCompletionOrderInvariant:
    @pytest.mark.parametrize("case,chaos", [
        ("put", False), ("get", False), ("forward", False), ("spawn", False),
        ("put", True), ("get", True), ("forward", True), ("spawn", True)])
    def test_ld_le_lo_le_global(self, fast_params, case, chaos):
        """Fig. 1's order holds for every operation, in simulated time —
        also when its message is dropped, retransmitted or duplicated
        under the reliable transport."""
        rounds = 12
        order = [{} for _ in range(rounds)]

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.barrier()
            if img.rank == 0:
                for stamps in order:
                    if case == "put":
                        op = img.copy_async(T.ref(1), np.ones(8))
                    elif case == "get":
                        op = img.copy_async(np.zeros(8), T.ref(1))
                    elif case == "forward":
                        op = img.copy_async(T.ref(2), T.ref(1))
                    else:
                        op = yield from img.spawn(_noop, 1)
                    assert op.initiated.done
                    for name, fut in (("ld", op.local_data),
                                      ("lo", op.local_op),
                                      ("gd", op.global_done)):
                        fut.add_done_callback(
                            lambda _f, n=name, s=stamps:
                            s.setdefault(n, img.now))
                    yield op.global_done
                    yield op.local_data
            yield from img.barrier()

        faults = (FaultPlan(drop=0.25, duplicate=0.25, seed=11) if chaos
                  else None)
        machine, _ = run_spmd(kernel, 3, setup=_setup, faults=faults,
                              params=fast_params(3, reliable=chaos))
        for stamps in order:
            assert stamps["ld"] <= stamps["lo"] <= stamps["gd"]
        if chaos:
            assert machine.stats["net.retransmits"] > 0
            assert machine.stats["net.dups"] > 0


    COLLECTIVES = {
        "broadcast": lambda img: img.broadcast_async(
            np.full(4, float(img.rank)), root=1),
        "reduce": lambda img: img.reduce_async(
            1.0, recvbuf=np.zeros(1), root=1),
        "allreduce": lambda img: img.allreduce_async(
            1.0, result_buf=np.zeros(1)),
        "barrier": lambda img: img.barrier_async(),
        "gather": lambda img: img.gather_async(img.rank, root=1),
        "scatter": lambda img: img.scatter_async(
            list(range(img.nimages)) if img.rank == 1 else None, root=1),
        "allgather": lambda img: img.allgather_async(img.rank),
        "alltoall": lambda img: img.alltoall_async(
            list(range(img.nimages))),
        "scan": lambda img: img.scan_async(img.rank),
        "sort": lambda img: img.sort_async(np.array([float(-img.rank)])),
    }

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_collective_handles_ld_le_lo_le_global(self, fast_params, name):
        """The same order on every member's handle of every asynchronous
        collective, each waited to its last point."""
        n = 5
        order = [{} for _ in range(n)]

        def kernel(img):
            # stagger the calls so tree messages also meet late callers
            yield from img.compute(img.rank * 2e-6)
            op = self.COLLECTIVES[name](img)
            assert op.initiated.done
            for point, fut in (("ld", op.local_data), ("lo", op.local_op),
                               ("gd", op.global_done)):
                fut.add_done_callback(
                    lambda _f, p=point: order[img.rank].setdefault(
                        p, img.now))
            yield from img.wait_all([op])
            yield op.local_data

        run_spmd(kernel, n, params=fast_params(n))
        for stamps in order:
            assert stamps["ld"] <= stamps["lo"] <= stamps["gd"]


class TestPeerFailureOnTheHandle:
    @pytest.mark.parametrize("case", ["put", "spawn"])
    def test_confirmed_dead_destination_fails_local_op_and_global_done(
            self, case):
        """The handle *is* the message's receipt: a send the transport
        abandons shows as PeerFailedError on the operation's own
        completion points, and local data completion still resolves."""

        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank != 0:
                return None
            img.machine.network.confirm_dead(1)
            if case == "put":
                op = img.copy_async(T.ref(1), np.ones(8))
            else:
                op = yield from img.spawn(_noop, 1)
            for fut in (op.local_op, op.global_done):
                with pytest.raises(PeerFailedError) as caught:
                    yield fut
                assert caught.value.peer == 1
            yield op.local_data
            return "source buffer released"

        _m, results = run_spmd(kernel, 2, setup=_setup)
        assert results[0] == "source buffer released"
