"""Unit tests for the discrete-event engine."""

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.simulator.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_custom_start(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_event_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_other_events_survive_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        handle.cancel()
        sim.run()
        assert fired == ["b"]

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.peek() == 2.0

    def test_peek_empty(self):
        assert Simulator().peek() is None


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0

    def test_run_until_leaves_future_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=3.0)
        sim.run()
        assert fired == ["b"]

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(True))
        sim.run(until=3.0)
        assert fired == [True]

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestStep:
    def test_step_executes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        handle.cancel()
        assert sim.step() is True
        assert fired == ["b"]


class TestRecurring:
    def test_every_fires_periodically(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_every_with_start_delay(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now), start_delay=0.5)
        sim.run(until=2.6)
        assert times == [0.5, 1.5, 2.5]

    def test_every_cancel_stops_series(self):
        sim = Simulator()
        times = []
        handle = sim.every(1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, handle.cancel)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestRecurringSelfCancel:
    def test_cancel_from_inside_action_stops_series(self):
        """Regression: a series cancelled by its own action must stop —
        cancelling the already-fired event alone would let the tick
        reschedule forever."""
        sim = Simulator()
        fired = []
        handle_box = {}

        def action():
            fired.append(sim.now)
            if len(fired) == 3:
                handle_box["h"].cancel()

        handle_box["h"] = sim.every(1.0, action)
        sim.run()  # unbounded: must terminate
        assert fired == [1.0, 2.0, 3.0]
        assert sim.peek() is None

    def test_self_cancelling_driver_leaves_no_timers(self, sim, website):
        from repro.workload.generator import ScheduleDriver, steady
        from repro.workload.rbe import RemoteBrowserEmulator
        from repro.workload.tpcw import ORDERING_MIX

        rbe = RemoteBrowserEmulator(
            sim, website, ORDERING_MIX, think_time_mean=0.5, seed=2
        )
        ScheduleDriver(sim, rbe, steady(0, 5.0))
        sim.run()  # population 0, schedule ends: the heap must drain
        assert sim.peek() is None


class TestNonFiniteTimes:
    """NaN compares false against every time: accepted, a NaN event
    would fire between other events and set the clock to NaN."""

    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.peek() is None

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_reschedule_to_nan_rejected(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, float("nan"), lambda: None)

    def test_rejected_nan_leaves_order_and_clock_intact(self):
        sim = Simulator()
        fired = []
        for t in (5.0, 1.0, 3.0, float("nan"), 2.0, 0.5, 4.0):
            try:
                sim.schedule_at(t, lambda: fired.append(sim.now))
            except SimulationError:
                pass
        sim.run()
        assert fired == [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert sim.now == 5.0

    def test_infinite_time_still_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(float("inf"), lambda: fired.append(True))
        sim.run(until=10.0)
        assert fired == []
        assert sim.peek() == float("inf")


class TestSeriesHandleType:
    def test_handles_of_different_timers_share_one_type(self):
        sim = Simulator()
        first = sim.every(1.0, lambda: None)
        second = Simulator().every(2.0, lambda: None, start_delay=0.5)
        assert type(first) is type(second)
        assert isinstance(first, Event)

    def test_handle_tracks_next_occurrence(self):
        sim = Simulator()
        handle = sim.every(1.0, lambda: None, start_delay=0.5)
        assert handle.time == 0.5
        sim.run(until=2.0)
        assert handle.time == 2.5


class TestReschedule:
    def test_keeps_most_recent_pending_event_at_same_time(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("old"))
        kept = sim.reschedule(handle, 1.0, lambda: fired.append("new"))
        assert kept is handle
        sim.run()
        assert fired == ["new"]
        assert sim.events_executed == 1

    def test_moves_event_to_a_new_time(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        moved = sim.reschedule(handle, 2.0, lambda: fired.append(sim.now))
        assert moved is not handle
        assert handle.cancelled
        sim.run()
        assert fired == [2.0]

    def test_never_keeps_a_cancelled_event(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("a"))
        handle.cancel()
        again = sim.reschedule(handle, 1.0, lambda: fired.append("a"))
        assert again is not handle
        sim.run()
        assert fired == ["a"]

    def test_never_keeps_a_fired_event(self):
        """The fired event is the most recent and lies at exactly now +
        0; only "later than now" tells it from a pending one."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("first"))
        sim.run()
        again = sim.reschedule(handle, 0.0, lambda: fired.append("second"))
        assert again is not handle
        sim.run()
        assert fired == ["first", "second"]

    def test_never_keeps_an_event_scheduled_before_another(self):
        """Keeping it would run it ahead of a tie scheduled after it."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("moved"))
        sim.schedule(1.0, lambda: fired.append("later"))
        again = sim.reschedule(handle, 1.0, lambda: fired.append("moved"))
        assert again is not handle
        sim.run()
        assert fired == ["later", "moved"]

    def test_none_schedules(self):
        sim = Simulator()
        fired = []
        sim.reschedule(None, 1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, -0.5, lambda: None)


@dataclass(order=True)
class _HeapEntry:
    time: float
    seq: int
    event: "_ReferenceEvent" = field(compare=False)


class _ReferenceEvent:
    def __init__(self, time, action):
        self.time = time
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceSimulator:
    """The engine before tuple entries and slot-keeping reschedule: a
    dataclass heap entry per event, and reschedule as cancel + schedule."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()
        self.events_executed = 0

    def schedule(self, delay, action):
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, time, action):
        assert time >= self.now
        event = _ReferenceEvent(time, action)
        heapq.heappush(self._heap, _HeapEntry(time, next(self._seq), event))
        return event

    def reschedule(self, event, delay, action):
        event.cancel()
        return self.schedule(delay, action)

    def run(self, until):
        while self._heap:
            entry = self._heap[0]
            if entry.event.cancelled:
                heapq.heappop(self._heap)
                continue
            if entry.time > until:
                break
            heapq.heappop(self._heap)
            self.now = entry.time
            self.events_executed += 1
            entry.event.action()
        self.now = max(self.now, until)


def _random_script(sim, seed, *, until=30.0):
    """Drive ``sim`` with a seeded mix of schedule, schedule_at, cancel and
    reschedule; delays come from a few exact binary fractions, so ties
    and zero delays are common.  Returns the (label, time) firing log."""
    rng = np.random.default_rng(seed)
    delays = (0.0, 0.25, 0.5, 1.0)
    log = []
    handles = []
    labels = itertools.count()

    def make_action():
        label = next(labels)

        def action():
            log.append((label, sim.now))
            if len(log) < 2000:
                for _ in range(int(rng.integers(1, 5))):
                    operate()

        return action

    def operate():
        op = int(rng.integers(0, 6))
        delay = delays[int(rng.integers(0, len(delays)))]
        if op == 0 or not handles:
            handles.append(sim.schedule(delay, make_action()))
        elif op == 1:
            handles.append(sim.schedule_at(sim.now + 2 * delay, make_action()))
        elif op == 2:
            handles[int(rng.integers(0, len(handles)))].cancel()
        elif op == 3:
            # a completion moved after a state change: same time or not
            i = int(rng.integers(0, len(handles)))
            handles[i] = sim.reschedule(handles[i], delay, make_action())
        elif op == 4:
            # the most recent event rescheduled, often to its own time
            handles[-1] = sim.reschedule(
                handles[-1], max(0.0, handles[-1].time - sim.now), make_action()
            )
        else:
            handle = sim.schedule(delay, make_action())
            handles.append(sim.reschedule(handle, delay, make_action()))

    for _ in range(20):
        operate()
    sim.run(until=until)
    return log


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_script_fires_in_reference_order(self, seed):
        sim = Simulator()
        reference = _ReferenceSimulator()
        log = _random_script(sim, seed)
        expected = _random_script(reference, seed)
        assert len(expected) > 1000
        assert log == expected
        assert sim.events_executed == reference.events_executed
        assert sim.now == reference.now

    def test_script_keeps_some_events(self):
        """The script exercises the kept path, not only cancel + push."""
        sim = Simulator()
        pushes = []
        original = sim.schedule_at

        def counting(time, action):
            pushes.append(time)
            return original(time, action)

        sim.schedule_at = counting
        reference = _ReferenceSimulator()
        _random_script(sim, 3)
        _random_script(reference, 3)
        assert len(pushes) < next(reference._seq)
