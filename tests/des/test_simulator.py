"""DES kernel tests: ordering, determinism, cancellation, run semantics."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.simulator import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        log = []
        sim.schedule(30.0, lambda: log.append("c"))
        sim.schedule(10.0, lambda: log.append("a"))
        sim.schedule(20.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, sim):
        log = []
        for name in "abcde":
            sim.schedule(5.0, lambda n=name: log.append(n))
        sim.run()
        assert log == list("abcde")

    def test_priority_breaks_ties(self, sim):
        log = []
        sim.schedule(5.0, lambda: log.append("low"), priority=1)
        sim.schedule(5.0, lambda: log.append("high"), priority=0)
        sim.run()
        assert log == ["high", "low"]

    def test_clock_advances(self, sim):
        times = []
        sim.schedule(10.0, lambda: times.append(sim.now))
        sim.schedule(25.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [10.0, 25.0]
        assert sim.now == 25.0

    def test_schedule_at_absolute(self, sim):
        hits = []
        sim.schedule_at(42.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [42.0]

    def test_nested_scheduling(self, sim):
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(5.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(10.0, outer)
        sim.run()
        assert log == [("outer", 10.0), ("inner", 15.0)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        log = []
        handle = sim.schedule(10.0, lambda: log.append("x"))
        sim.schedule(5.0, lambda: log.append("keep"))
        assert handle.cancel()
        sim.run()
        assert log == ["keep"]

    def test_double_cancel_returns_false(self, sim):
        handle = sim.schedule(10.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert handle.cancelled

    def test_cancel_from_event(self, sim):
        log = []
        later = sim.schedule(20.0, lambda: log.append("later"))
        sim.schedule(10.0, lambda: later.cancel())
        sim.run()
        assert log == []

    def test_executed_count_excludes_cancelled(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        sim.run()
        assert sim.executed_events == 1


class TestRunSemantics:
    def test_until_is_inclusive(self, sim):
        log = []
        sim.schedule(10.0, lambda: log.append("at"))
        sim.schedule(10.0001, lambda: log.append("after"))
        sim.run(until=10.0)
        assert log == ["at"]
        assert sim.pending_events == 1

    def test_until_advances_clock_when_drained(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_returns_executed_count(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run() == 5

    def test_max_events(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.now == 3.0

    def test_resume_after_until(self, sim):
        log = []
        sim.schedule(10.0, lambda: log.append(1))
        sim.schedule(20.0, lambda: log.append(2))
        sim.run(until=15.0)
        assert log == [1]
        sim.run()
        assert log == [1, 2]

    def test_step(self, sim):
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        assert sim.step()
        assert log == ["a"]
        assert not sim.step()

    def test_not_reentrant(self, sim):
        def bad():
            sim.run()

        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_until_advances_clock_when_only_cancelled_remain(self, sim):
        h = sim.schedule(50.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        h.cancel()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_live_events_counter(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        h2 = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.live_events == 3
        h1.cancel()
        assert sim.live_events == 2
        sim.step()  # runs the h2 event, skipping the cancelled h1
        assert sim.live_events == 1
        h2.cancel()  # already executed: must not decrement again
        assert sim.live_events == 1
        sim.run()
        assert sim.live_events == 0

    @given(delays=st.lists(st.floats(0, 1000), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_property_execution_order_sorted(self, delays):
        sim = Simulator()
        executed = []
        for d in delays:
            sim.schedule(d, lambda d=d: executed.append(sim.now))
        sim.run()
        assert executed == sorted(executed)
        assert len(executed) == len(delays)

    @given(delays=st.lists(st.floats(0, 100), min_size=1, max_size=50), seed=st.integers(0, 10))
    @settings(max_examples=50)
    def test_property_deterministic(self, delays, seed):
        def trace():
            sim = Simulator()
            log = []
            for i, d in enumerate(delays):
                sim.schedule(d, lambda i=i: log.append((sim.now, i)))
            sim.run()
            return log

        assert trace() == trace()


class TestWatchedKinds:
    def test_unwatched_kinds_are_not_tracked(self, sim):
        for k in range(50):
            sim.schedule(float(k), int, kind="process")
        assert sim._watched == {}
        sim.run()
        assert sim._watched == {}

    def test_watch_picks_up_events_already_in_the_heap(self, sim):
        sim.schedule(1.0, int, kind="process", payload="early")
        sim.schedule(2.0, int, kind="transmit")
        sim.schedule(3.0, int, kind="process").cancel()
        sim.watch("process")
        sim.schedule(4.0, int, kind="process", payload="late")
        sim.watch("process")  # idempotent: nothing is listed twice
        assert [ev.payload for ev in sim.pending("process")] == ["early", "late"]

    def test_pending_drops_executed_and_cancelled_events(self, sim):
        sim.watch("process")
        handles = [
            sim.schedule(float(k), int, kind="process", payload=k) for k in range(6)
        ]
        sim.schedule(0.5, int)  # opaque events never enter the list
        handles[4].cancel()
        sim.run(until=2.0)  # executes payloads 0, 1, 2
        assert [ev.payload for ev in sim.pending("process")] == [3, 5]
        sim.run()
        assert sim.pending("process") == []

    def test_watch_list_pickles_as_references_to_the_heap_events(self, sim):
        sim.watch("process")
        for k in range(4):
            sim.schedule(float(k), int, kind="process", payload=k)
        sim.run(until=0.0)
        restored = pickle.loads(pickle.dumps(sim))
        in_heap = {id(ev) for ev in restored._heap}
        pending = restored.pending("process")
        assert [ev.payload for ev in pending] == [1, 2, 3]
        assert all(id(ev) in in_heap for ev in pending)
        restored.schedule(9.0, int, kind="process", payload=9)  # still watching
        restored.run(until=2.0)
        assert [ev.payload for ev in restored.pending("process")] == [3, 9]
