"""The happens-before race detector: seeded racy micro-programs must be
flagged (with both access sites named), their correctly-synchronized
counterparts must be clean, and enabling detection must not perturb the
simulation."""

import numpy as np

from repro.analysis.racecheck import vc_join, vc_leq
from repro.runtime.memory_model import ANY, READ, WRITE


def _setup(machine):
    machine.coarray("T", shape=16, dtype=np.float64)
    machine.make_event(name="ev1")
    machine.make_event(name="ev2")


def races(machine):
    return machine.racecheck.races


class TestVectorClocks:
    def test_join_is_pointwise_max(self):
        a = {1: 2, 2: 1}
        vc_join(a, {2: 5, 3: 1})
        assert a == {1: 2, 2: 5, 3: 1}

    def test_leq(self):
        assert vc_leq({}, {1: 1})
        assert vc_leq({1: 1}, {1: 2, 2: 1})
        assert not vc_leq({1: 2}, {1: 1})
        assert not vc_leq({1: 1, 2: 1}, {1: 1})

    def test_incomparable(self):
        a, b = {1: 1}, {2: 1}
        assert not vc_leq(a, b) and not vc_leq(b, a)


class TestMissingCofence:
    """The tentpole's canonical bug: overwrite a copy's source buffer
    without waiting for local data completion."""

    def kernel(self, img, fenced):
        T = img.machine.coarray_by_name("T")
        src = np.zeros(8)
        if img.rank == 0:
            img.copy_async(T.ref(1, slice(0, 8)), src)
            if fenced:
                yield from img.cofence()
            img.local_write(src, np.ones(8))
        yield from img.barrier()

    def test_flagged_without_cofence(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(False,),
                          racecheck=True)
        assert len(races(machine)) == 1
        report = races(machine)[0]
        # both access sites named, with op kind, thread and direction
        assert report.a.op == "copy.put.src" and not report.a.write
        assert report.b.op == "local.write" and report.b.write
        assert report.a.thread == "main@0" and report.b.thread == "main@0"
        assert "cofence" in report.hint
        text = str(report)
        assert "copy.put.src" in text and "local.write" in text

    def test_clean_with_cofence(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(True,),
                          racecheck=True)
        assert races(machine) == []


class TestWrongDownwardClass:
    """cofence(downward=READ) lets read-class operations (puts) defer
    completion past the fence — overwriting the put's source after such
    a fence is exactly the paper's §III-B footgun."""

    def kernel(self, img, downward):
        T = img.machine.coarray_by_name("T")
        src = np.zeros(8)
        if img.rank == 0:
            img.copy_async(T.ref(1, slice(0, 8)), src)  # classes: {READ}
            yield from img.cofence(downward=downward)
            img.local_write(src, np.ones(8))
        yield from img.barrier()

    def test_read_class_passes_and_races(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(READ,),
                          racecheck=True)
        assert len(races(machine)) == 1

    def test_any_class_passes_and_races(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(ANY,),
                          racecheck=True)
        assert len(races(machine)) == 1

    def test_write_class_waits_and_is_clean(self, spmd):
        # a put is READ-class: downward=WRITE does not let it pass
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(WRITE,),
                          racecheck=True)
        assert races(machine) == []

    def test_default_waits_everything(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(None,),
                          racecheck=True)
        assert races(machine) == []


class TestUnorderedRemoteAccess:
    """Cross-image: image 0 puts into image 1's section while image 1
    reads it with no edge in between."""

    def kernel(self, img, sync):
        T = img.machine.coarray_by_name("T")
        ev = img.machine.event_by_name("ev1")
        if img.rank == 0:
            yield from img.put(T.ref(1, slice(0, 4)), np.ones(4))
            if sync:
                yield from img.event_notify(ev.ref_for(1))
        elif img.rank == 1:
            if sync:
                yield from img.event_wait(ev)
            img.local_read(T)

    def test_flagged_without_sync(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(False,),
                          racecheck=True)
        assert len(races(machine)) == 1
        report = races(machine)[0]
        assert {report.a.thread, report.b.thread} == {"main@0", "main@1"}
        assert "event_notify" in report.hint
        assert "T" in report.location

    def test_clean_with_event_pair(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(True,),
                          racecheck=True)
        assert races(machine) == []


class TestWrongEventPredicate:
    """An event wait that consumes the wrong event's post orders nothing:
    the reader still races with the copy's destination write."""

    def kernel(self, img, right_event):
        T = img.machine.coarray_by_name("T")
        ev1 = img.machine.event_by_name("ev1")
        ev2 = img.machine.event_by_name("ev2")
        if img.rank == 0:
            img.copy_async(T.ref(1, slice(0, 4)), np.ones(4),
                           dest_event=ev1.ref_for(1))
            yield from img.event_notify(ev2.ref_for(1))
        elif img.rank == 1:
            yield from img.event_wait(ev1 if right_event else ev2)
            img.local_read(T.ref(1, slice(0, 4)))
        yield from img.barrier()

    def test_wrong_predicate_flagged(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(False,),
                          racecheck=True)
        assert len(races(machine)) == 1
        report = races(machine)[0]
        assert report.a.op == "copy.put.dest" and report.a.write
        assert report.b.op == "local.read"

    def test_right_predicate_clean(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(True,),
                          racecheck=True)
        assert races(machine) == []


class TestFinishAndSpawnEdges:
    def kernel(self, img, use_finish):
        T = img.machine.coarray_by_name("T")

        def writer(image):
            image.local_write(
                image.machine.coarray_by_name("T").ref(image.rank,
                                                       slice(0, 4)),
                np.full(4, 7.0))
            yield from image.compute(1e-6)

        if use_finish:
            yield from img.finish_begin()
        if img.rank == 0:
            yield from img.spawn(writer, 1)
        if use_finish:
            yield from img.finish_end()
        else:
            yield from img.barrier()
        if img.rank == 1:
            img.local_read(T)

    def test_finish_orders_shipped_writes(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(True,),
                          racecheck=True)
        assert races(machine) == []

    def test_barrier_alone_does_not(self, spmd):
        # A barrier is not finish: the shipped function may still be
        # running (or its effects unpublished) when the barrier exits.
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(False,),
                          racecheck=True)
        assert len(races(machine)) >= 1

    def test_spawn_body_sees_spawner_writes(self, spmd):
        # spawn→body edge: the shipped function inherits the spawner's
        # clock, so it may read what the spawner wrote before spawning.
        def kernel(img):
            T = img.machine.coarray_by_name("T")

            def reader(image):
                yield from image.get(
                    image.machine.coarray_by_name("T").ref(0, slice(0, 4)))

            yield from img.finish_begin()
            if img.rank == 0:
                img.local_write(T.ref(0, slice(0, 4)), np.ones(4))
                yield from img.spawn(reader, 1)
            yield from img.finish_end()

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        assert races(machine) == []


class TestConcurrentActivations:
    def test_two_executions_of_one_function_are_two_activations(self, spmd):
        """Two shipped ``bump``s on image 1 share a label, not an
        activation: the lost update is a cross-activation race, and the
        report must not advise a cofence."""
        def bump(image):
            ref = image.machine.coarray_by_name("T").ref(image.rank, 0)
            value = image.local_read(ref)
            yield from image.compute(1e-6)
            image.local_write(ref, value + 1)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(bump, 1)
                yield from img.spawn(bump, 1)
            yield from img.finish_end()

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        assert machine.coarray_by_name("T").local_at(1)[0] == 1.0  # lost
        assert races(machine)
        for report in races(machine):
            assert report.a.thread == report.b.thread == "bump@1"
            assert report.a.tid != report.b.tid
            assert "same activation" not in report.hint
            assert f"bump@1#{report.a.tid}" in str(report)


class TestLockEdges:
    def kernel(self, img, locked):
        T = img.machine.coarray_by_name("T")
        lock = img.machine.lock_by_name("L")
        if locked:
            yield from lock.acquire(img, 0)
        yield from img.put(T.ref(0, img.rank % 2), float(img.rank))
        if locked:
            lock.release(img, 0)
        yield from img.barrier()

    @staticmethod
    def _setup(machine):
        machine.coarray("T", shape=16, dtype=np.float64)
        machine.make_lock(name="L")

    def test_lock_orders_conflicting_puts(self, spmd):
        machine, _ = spmd(self.kernel, n=4, setup=self._setup,
                          args=(True,), racecheck=True)
        assert races(machine) == []

    def test_unlocked_puts_race(self, spmd):
        machine, _ = spmd(self.kernel, n=4, setup=self._setup,
                          args=(False,), racecheck=True)
        assert len(races(machine)) >= 1


class TestCollectiveEdges:
    def kernel(self, img, with_barrier):
        T = img.machine.coarray_by_name("T")
        if img.rank == 0:
            img.local_write(T.ref(0, slice(0, 8)), np.arange(8.0))
        if with_barrier:
            yield from img.barrier()
        if img.rank == 1:
            yield from img.get(T.ref(0, slice(0, 8)))

    def test_barrier_orders_remote_read(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(True,),
                          racecheck=True)
        assert races(machine) == []

    def test_no_barrier_races(self, spmd):
        machine, _ = spmd(self.kernel, n=2, setup=_setup, args=(False,),
                          racecheck=True)
        assert len(races(machine)) == 1

    def test_rooted_reduce_does_not_order_non_roots(self, spmd):
        # reduce's exit is only a join at the root: non-roots get no
        # barrier out of it, so a reader on image 2 still races.
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                img.local_write(T.ref(0, slice(0, 4)), np.ones(4))
            yield from img.reduce(float(img.rank), root=1)
            if img.rank == 2:
                yield from img.get(T.ref(0, slice(0, 4)))

        machine, _ = spmd(kernel, n=4, setup=_setup, racecheck=True)
        assert len(races(machine)) == 1

    def test_allreduce_orders_everyone(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            if img.rank == 0:
                img.local_write(T.ref(0, slice(0, 4)), np.ones(4))
            yield from img.allreduce(1.0)
            if img.rank == 2:
                yield from img.get(T.ref(0, slice(0, 4)))

        machine, _ = spmd(kernel, n=4, setup=_setup, racecheck=True)
        assert races(machine) == []


class TestHandleWaits:
    def test_wait_all_orders_explicit_copies(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            ev = img.machine.event_by_name("ev1")
            src = np.zeros(4)
            if img.rank == 0:
                op = img.copy_async(T.ref(1, slice(0, 4)), src,
                                    dest_event=ev.ref_for(0))
                yield from img.wait_all([op])
                img.local_write(src, np.ones(4))
            yield from img.barrier()

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        assert races(machine) == []


class TestDetectorMechanics:
    def test_disabled_by_default(self, spmd):
        def kernel(img):
            yield from img.barrier()

        machine, _ = spmd(kernel, n=2)
        assert machine.racecheck is None
        assert "race.accesses" not in machine.stats

    def test_enabling_does_not_perturb_the_simulation(self, spmd):
        from repro.apps.producer_consumer import PCConfig, pc_kernel

        def setup(machine):
            machine.coarray("pc_inbuf", shape=80, dtype=np.uint8)
            machine.make_event(name="pc_ev")

        config = PCConfig(iterations=40)
        base, r0 = spmd(pc_kernel, n=4, setup=setup, args=(config,))
        checked, r1 = spmd(pc_kernel, n=4, setup=setup, args=(config,),
                           racecheck=True)
        # the deterministic half of "an observer": same results, same
        # simulated time, and not one simulator event or task more
        assert r0 == r1
        assert base.sim.now == checked.sim.now
        assert base.sim.events_processed == checked.sim.events_processed
        assert base.sim.next_task_id() == checked.sim.next_task_id()
        assert (base.stats["net.msgs"], base.stats["copy.initiated"]) == \
               (checked.stats["net.msgs"], checked.stats["copy.initiated"])

    def test_duplicate_pairs_reported_once(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            src = np.zeros(8)
            if img.rank == 0:
                for _ in range(10):
                    img.copy_async(T.ref(1, slice(0, 8)), src)
                    img.local_write(src, np.ones(8))
            yield from img.barrier()

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        # one signature (same location, ops, threads) despite 10 rounds
        assert len(races(machine)) == 1

    def test_report_text(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            src = np.zeros(8)
            if img.rank == 0:
                img.copy_async(T.ref(1, slice(0, 8)), src)
                img.local_write(src, np.ones(8))
            yield from img.barrier()

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        text = machine.racecheck.report()
        assert "1 race(s)" in text
        assert "copy.put.src" in text and "local.write" in text

    def test_clean_report_counts_accesses(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            img.local_write(T.ref(img.rank, 0), 1.0)
            yield from img.barrier()

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        assert "no races" in machine.racecheck.report()
        assert machine.stats["race.accesses"] == 2

    def test_element_ranges_do_not_conflict(self, spmd):
        # disjoint element writes to one section are not a race
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.put(T.ref(0, img.rank), float(img.rank))
            yield from img.barrier()

        machine, _ = spmd(kernel, n=4, setup=_setup, racecheck=True)
        assert races(machine) == []

    def test_overlapping_ranges_conflict(self, spmd):
        def kernel(img):
            T = img.machine.coarray_by_name("T")
            yield from img.put(T.ref(0, slice(0, 4)), np.ones(4))

        machine, _ = spmd(kernel, n=2, setup=_setup, racecheck=True)
        assert len(races(machine)) == 1


class TestEpochOrdering:
    """Most records are ordered against a new access by one lookup of
    their epoch instead of a walk over their clock; no verdict may depend
    on which of the two decided it."""

    @staticmethod
    def _scenarios():
        from repro.apps.producer_consumer import (PCConfig,
                                                  run_producer_consumer)
        from repro.apps.randomaccess import RAConfig, run_randomaccess
        from repro.apps.uts import TreeParams, UTSConfig, run_uts
        from repro.runtime.program import run_spmd

        def predicated(img, fenced):
            # the one clock no epoch stands for: a predicated copy's
            T = img.machine.coarray_by_name("T")
            go = img.machine.event_by_name("ev1")
            src = np.zeros(8)
            if img.rank == 0:
                img.copy_async(T.ref(1, slice(0, 8)), src, pre_event=go)
                yield from img.cofence(downward=ANY)
                yield from img.event_notify(go)
                if fenced:
                    yield from img.cofence()
                img.local_write(src, np.ones(8))
            yield from img.barrier()

        yield "uts", lambda: run_uts(
            4, UTSConfig(tree=TreeParams(b0=4, max_depth=6, seed=19)),
            racecheck=True)
        for variant in ("function-shipping", "get-update-put"):
            yield f"ra-{variant}", lambda v=variant: run_randomaccess(
                4, RAConfig(updates_per_image=32, variant=v),
                racecheck=True)
        for variant in ("cofence", "events", "finish"):
            yield f"pc-{variant}", lambda v=variant: run_producer_consumer(
                4, PCConfig(iterations=30, variant=v), racecheck=True)
        for fenced in (False, True):
            yield f"predicated-{fenced}", lambda f=fenced: run_spmd(
                predicated, 2, setup=_setup, args=(f,), racecheck=True)

    def test_verdicts_match_full_clock_comparison(self, monkeypatch):
        from repro.analysis.racecheck import RaceDetector

        detectors = []
        init = RaceDetector.__init__

        def remembering_init(self, machine):
            init(self, machine)
            detectors.append(self)

        monkeypatch.setattr(RaceDetector, "__init__", remembering_init)

        def verdicts():
            out = {}
            for name, run in self._scenarios():
                run()
                detector = detectors.pop()
                # sites without their ranges: buffer addresses differ
                out[name] = ([(r.location, r.a.op, r.a.thread, r.a.time,
                               r.b.op, r.b.thread, r.b.time)
                              for r in detector.races],
                             detector.machine.stats["race.accesses"])
            return out

        with_epochs = verdicts()
        record = RaceDetector.record_access
        monkeypatch.setattr(
            RaceDetector, "record_access",
            lambda self, *args, epoch=None: record(self, *args))
        assert verdicts() == with_epochs
        # the comparison saw both outcomes
        assert with_epochs["ra-get-update-put"][0]
        assert with_epochs["predicated-False"][0]
        assert not with_epochs["predicated-True"][0]
        assert not with_epochs["uts"][0]


class TestOverhead:
    def test_enabled_overhead_within_2x(self):
        """The wall-clock half of "an observer": ≤ 2× on the cofence
        micro-benchmark.  Runs alternate and each side takes its best of
        five, so a scheduling hiccup or a drifting host clock hits both
        alike instead of whichever happened to run second."""
        import time

        from repro.apps.producer_consumer import (PCConfig,
                                                  run_producer_consumer)

        config = PCConfig(iterations=300)

        def timed(racecheck):
            t0 = time.perf_counter()
            run_producer_consumer(8, config, racecheck=racecheck)
            return time.perf_counter() - t0

        timed(False), timed(True)  # warm caches
        base = checked = float("inf")
        for _ in range(5):
            base = min(base, timed(False))
            checked = min(checked, timed(True))
        assert checked <= 2.0 * base, (checked, base)
