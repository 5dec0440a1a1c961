"""Property-based tests for the simulation substrate."""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.tasks import Delay, Future, Task, all_of, any_of
from repro.runtime.sizeof import sizeof


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100,
                                     allow_nan=False), min_size=1,
                           max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)


class TestTaskProperties:
    @given(durations=st.lists(st.floats(min_value=1e-9, max_value=1.0,
                                        allow_nan=False), min_size=1,
                              max_size=20))
    def test_sequential_delays_sum(self, durations):
        sim = Simulator()

        def gen():
            for d in durations:
                yield Delay(d)
            return sim.now

        t = Task(sim, gen())
        sim.run()
        assert abs(t.done_future.result() - sum(durations)) < 1e-6

    @given(resolution_order=st.permutations(list(range(6))))
    def test_all_of_insensitive_to_resolution_order(self, resolution_order):
        futures = [Future(str(i)) for i in range(6)]
        combined = all_of(futures)
        for idx in resolution_order:
            assert not combined.done or idx == resolution_order[-1]
            futures[idx].set_result(idx * 10)
        assert combined.result() == [i * 10 for i in range(6)]

    @given(resolution_order=st.permutations(list(range(5))))
    def test_any_of_returns_first_resolved(self, resolution_order):
        futures = [Future(str(i)) for i in range(5)]
        combined = any_of(futures)
        futures[resolution_order[0]].set_result("x")
        assert combined.result() == (resolution_order[0], "x")


class TestSizeofProperties:
    scalar = st.one_of(st.integers(), st.floats(allow_nan=False),
                       st.text(max_size=20), st.booleans(), st.none())

    @given(value=st.recursive(scalar,
                              lambda children: st.lists(children,
                                                        max_size=5),
                              max_leaves=20))
    def test_sizeof_non_negative(self, value):
        assert sizeof(value) >= 0

    @given(items=st.lists(st.integers(), max_size=20))
    def test_sizeof_list_grows_with_elements(self, items):
        assert sizeof(items + [1]) > sizeof(items)

    @given(data=st.binary(max_size=256))
    def test_sizeof_bytes_is_length(self, data):
        assert sizeof(data) == len(data)
