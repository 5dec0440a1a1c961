"""Pickle round-trips for every AM payload type (DESIGN.md §14).

The process backend ships active messages as pickled frames resolved
against the *receiver's* registries.  These tests build two separate,
symmetrically-declared :class:`Machine` objects — exactly the situation
of two worker processes — and round-trip one payload of every shape the
runtime actually sends: spawn closures, copy_async descriptors,
collective contributions, and heartbeat / membership frames.  Identity
assertions (``is``) verify interning: registry objects must resolve to
the receiver's instances, never be copied.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro import MachineParams
from repro.backend.wire import WireError, dump_frame, load_frame
from repro.runtime.coarray import CoarrayRef, ImageSection
from repro.runtime.event import EventRef
from repro.runtime.program import Machine


def _shipped_kernel(img, a, b):
    """Module-level generator, the only kind of function spawn ships."""
    yield
    return a + b


def _make_machine() -> Machine:
    m = Machine(4, MachineParams.uniform(4), seed=7)
    m.coarray("grid", (8,), dtype=np.float64)
    m.coarray("counts", (4,), dtype=np.int64)
    m.make_event(name="done_ev")
    m.make_lock(name="table_lock")
    return m


@pytest.fixture
def pair():
    """(sender, receiver): two machines with identical declarations,
    standing in for two worker processes."""
    return _make_machine(), _make_machine()


def roundtrip(sender: Machine, receiver: Machine, obj):
    return load_frame(receiver, dump_frame(sender, obj))


# --------------------------------------------------------------------- #
# Registry interning
# --------------------------------------------------------------------- #

def test_coarray_ref_resolves_to_receiver_instance(pair):
    a, b = pair
    ref = a.coarray_by_name("grid").ref(2, 5)
    out = roundtrip(a, b, ref)
    assert isinstance(out, CoarrayRef)
    assert out.coarray is b.coarray_by_name("grid")
    assert out.coarray is not a.coarray_by_name("grid")
    assert (out.world_rank, out.index) == (2, 5)


def test_image_section_resolves_to_receiver_instance(pair):
    a, b = pair
    sec = a.coarray_by_name("counts").on(3)
    out = roundtrip(a, b, sec)
    assert isinstance(out, ImageSection)
    assert out.coarray is b.coarray_by_name("counts")
    assert out.world_rank == 3


def test_event_ref_resolves_to_receiver_instance(pair):
    a, b = pair
    ref = EventRef(a.event_by_name("done_ev"), 1)
    out = roundtrip(a, b, ref)
    assert out.event is b.event_by_name("done_ev")
    assert out.world_rank == 1


def test_lock_and_machine_intern(pair):
    a, b = pair
    lock, machine = roundtrip(a, b, (a.lock_by_name("table_lock"), a))
    assert lock is b.lock_by_name("table_lock")
    assert machine is b


def test_world_team_resolves_by_id(pair):
    a, b = pair
    out = roundtrip(a, b, a.team_world)
    assert out is b.team_world


def test_team_created_on_miss_with_senders_id(pair):
    a, b = pair
    sub = a.intern_team(range(0, 2))
    assert sub.id not in b._teams  # receiver has not split yet
    out = roundtrip(a, b, sub)
    assert out.id == sub.id
    assert list(out.members) == [0, 1]
    # now that it exists, a second frame resolves to the same instance
    assert roundtrip(a, b, sub) is out


# --------------------------------------------------------------------- #
# Spawn payloads
# --------------------------------------------------------------------- #

def test_spawn_exec_payload_roundtrip(pair):
    """The full ``spawn.exec`` argument tuple: shipped function, args
    containing registry handles, completion event, then the finish key
    and tag the send path appends.  The activation name is not on the
    wire: the target derives it."""
    a, b = pair
    grid = a.coarray_by_name("grid")
    event_ref = EventRef(a.event_by_name("done_ev"), 0)
    payload = (_shipped_kernel, (grid.ref(1, 3), 42.5), event_ref,
               (3, 1, 4, 1), 91, ("fin", 0, 7), True)
    fn, args, ev, rc_vc, spawn_id, key, tag = roundtrip(a, b, payload)
    assert fn is _shipped_kernel  # module functions unpickle by name
    assert args[0].coarray is b.coarray_by_name("grid")
    assert (args[0].world_rank, args[0].index, args[1]) == (1, 3, 42.5)
    assert (key, tag, rc_vc, spawn_id) == (
        ("fin", 0, 7), True, (3, 1, 4, 1), 91)
    assert ev.event is b.event_by_name("done_ev")


def test_spawn_closure_rejected_at_send_time(pair):
    a, _ = pair
    captured = 3

    def closure(img):
        yield
        return captured

    with pytest.raises(WireError, match="module-level"):
        dump_frame(a, (closure, (), None, None, 0, ("fin", 0, 0), None))


def test_lambda_rejected_at_send_time(pair):
    a, _ = pair
    with pytest.raises(WireError):
        dump_frame(a, (lambda img: None,))


def test_a_failed_dump_leaves_the_next_frame_whole(pair):
    """The pickler is reused: what a refused frame half-wrote or
    memoized must not reach the next one."""
    a, b = pair
    grid = a.coarray_by_name("grid")

    def closure(img):
        yield

    with pytest.raises(WireError, match="module-level"):
        dump_frame(a, (grid.ref(1, 3), np.arange(4), closure))
    fn, ref, data = roundtrip(a, b, (_shipped_kernel, grid.ref(2, 5),
                                     np.arange(4)))
    assert fn is _shipped_kernel
    assert ref.coarray is b.coarray_by_name("grid")
    assert (ref.world_rank, ref.index) == (2, 5)
    np.testing.assert_array_equal(data, np.arange(4))


def test_one_buffer_sent_twice_arrives_as_each_value(pair):
    """Mutated between two sends, one array is two payloads: no memo
    entry survives from one frame to the next."""
    a, b = pair
    buf = np.zeros(4, dtype=np.int64)
    first = dump_frame(a, (buf,))
    buf[:] = 7
    second = dump_frame(a, (buf,))
    np.testing.assert_array_equal(load_frame(b, first)[0], np.zeros(4))
    np.testing.assert_array_equal(load_frame(b, second)[0], np.full(4, 7))
    # ... and the sender's pickler keeps no reference to what it sent
    sent = weakref.ref(buf)
    del buf
    assert sent() is None


# --------------------------------------------------------------------- #
# copy_async descriptors
# --------------------------------------------------------------------- #

def test_copy_put_payload(pair):
    """``copy.put``: (dest_ref, dest_event, done_token, rank, key, tag)."""
    a, b = pair
    dest = a.coarray_by_name("grid").on(2)
    ev = a.event_by_name("done_ev")
    out = roundtrip(a, b, (dest, ev, 17, 0, ("cp", 0, 3), None))
    assert out[0].coarray is b.coarray_by_name("grid")
    assert out[1] is b.event_by_name("done_ev")
    assert out[2:] == (17, 0, ("cp", 0, 3), None)


def test_copy_get_and_data_payloads(pair):
    a, b = pair
    src = a.coarray_by_name("counts").ref(1, 2)
    get_req = roundtrip(a, b, (src, 23, None, 3, ("cp", 1, 4), False))
    assert get_req[0].coarray is b.coarray_by_name("counts")
    data = np.arange(6, dtype=np.int64)
    token, payload, key = roundtrip(a, b, (23, data, ("cp", 1, 4)))
    assert token == 23
    np.testing.assert_array_equal(payload, data)
    assert payload.dtype == np.int64


def test_copy_fwd_payload_two_handles(pair):
    a, b = pair
    src = a.coarray_by_name("grid").on(0)
    dest = a.coarray_by_name("grid").on(3)
    out = roundtrip(a, b, (src, dest, None, None, 5, 1, ("cp", 2, 0), None))
    assert out[0].coarray is out[1].coarray is b.coarray_by_name("grid")
    assert (out[0].world_rank, out[1].world_rank) == (0, 3)


# --------------------------------------------------------------------- #
# Collective contributions, heartbeats, membership
# --------------------------------------------------------------------- #

def test_collective_contribution_payloads(pair):
    a, b = pair
    vec = np.linspace(0.0, 1.0, 16)
    out_vec = roundtrip(a, b, (a.team_world, 0, 3, vec))
    assert out_vec[0] is b.team_world
    np.testing.assert_array_equal(out_vec[3], vec)
    # scalar and structured contributions survive bit-exactly
    assert roundtrip(a, b, (7, 0.1 + 0.2)) == (7, 0.1 + 0.2)
    assert roundtrip(a, b, [("min", -3), ("max", np.int64(9))]) == \
        [("min", -3), ("max", 9)]


def test_heartbeat_and_membership_payloads(pair):
    a, b = pair
    assert roundtrip(a, b, ()) == ()  # fail.hb carries no args
    assert roundtrip(a, b, ("confirm", 3)) == ("confirm", 3)
    assert roundtrip(a, b, ("suspect", 1)) == ("suspect", 1)


# --------------------------------------------------------------------- #
# Asymmetric declarations fail loudly
# --------------------------------------------------------------------- #

def test_unknown_coarray_is_wire_error(pair):
    a, b = pair
    only_a = a.coarray("only_on_sender", (2,))
    frame = dump_frame(a, only_a.on(0))
    with pytest.raises(WireError, match="never allocated"):
        load_frame(b, frame)


def test_unknown_event_is_wire_error(pair):
    a, b = pair
    ev = a.make_event(name="sender_only_ev")
    frame = dump_frame(a, EventRef(ev, 0))
    with pytest.raises(WireError, match="declared on every process"):
        load_frame(b, frame)
