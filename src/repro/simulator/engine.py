"""Discrete-event simulation engine.

The engine is a classic event-heap simulator: callbacks are scheduled at
absolute simulated times and executed in timestamp order.  Ties are broken
by a monotonically increasing sequence number so that scheduling order is
deterministic and events never compare their (arbitrary) payloads.

The engine is deliberately minimal — servers, workload generators and
telemetry samplers are all built as plain callbacks on top of it — but it
supports the two features a server simulation actually needs:

* **cancellation** — a scheduled event can be cancelled in O(1) (lazy
  deletion), which tier models use to reschedule completions when their
  service rate changes (:meth:`Simulator.reschedule` keeps the event
  when the new time is the old one and nothing was scheduled since); and
* **recurring timers** — used by telemetry samplers and open-loop
  workload sources.

Heap entries are plain ``(time, seq, event)`` tuples: ``seq`` is unique,
so the event itself is never compared and ``heapq`` orders entries with
the C tuple comparison.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine."""


class Event:
    """A handle to a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be
    cancelled.  A cancelled event stays in the heap but is skipped when
    popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "action", "cancelled", "seq")

    def __init__(
        self, time: float, action: Callable[[], None], seq: int = -1
    ):
        self.time = time
        self.action = action
        self.cancelled = False
        #: tie-break rank in the heap; -1 for handles never pushed
        self.seq = seq

    def cancel(self) -> None:
        """Mark this event so the engine skips it when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


class _SeriesHandle(Event):
    """Handle of an :meth:`Simulator.every` series.

    ``current`` is the scheduled tick; cancelling the handle cancels it
    and sets the handle's own flag, which the tick checks after the
    action so that a series cancelled from inside its action stops too.
    """

    __slots__ = ("current",)

    def __init__(self, current: Event, action: Callable[[], None]):
        super().__init__(current.time, action)
        self.current = current

    def cancel(self) -> None:  # noqa: D102 - same contract
        self.cancelled = True
        self.current.cancel()


class Simulator:
    """Event-heap discrete-event simulator.

    The simulator owns the virtual clock.  Time has no unit of its own;
    by convention every model in this package interprets it as seconds.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> sim.run(until=5.0)
    >>> fired
    [2.0]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = -1  # seq of the most recently scheduled event
        self._running = False
        self._events_executed = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_executed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns an :class:`Event` handle that may be cancelled.  Negative
        delays are rejected: the past is immutable.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute simulated time.

        Times before now are rejected, and so is NaN, which would
        otherwise compare false against every entry and fire out of
        order.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, action, seq)
        heappush(self._heap, (time, seq, event))
        return event

    def reschedule(
        self,
        event: Optional[Event],
        delay: float,
        action: Callable[[], None],
    ) -> Event:
        """Move ``event`` to ``delay`` seconds from now, running ``action``.

        Equivalent to ``event.cancel()`` followed by
        ``schedule(delay, action)`` — the same events run in the same
        order — but when ``event`` is pending, is the most recently
        scheduled event and would come back at exactly the same future
        time, it keeps its heap entry, takes ``action`` and is returned.
        Its entry ``(T, s)`` and the replacement ``(T, s + 1)`` rank
        alike against every live and future entry, because no entry
        holds a sequence number between them.  A fired event's time is
        never later than now, so it is never kept.  ``event`` may be
        None (nothing to cancel).
        """
        if event is not None:
            time = self._now + delay
            if (
                event.seq == self._seq
                and event.time == time
                and time > self._now
                and not event.cancelled
            ):
                event.action = action
                return event
            event.cancel()
        return self.schedule(delay, action)

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
    ) -> Event:
        """Schedule ``action`` to run every ``interval`` seconds.

        The returned handle cancels the *next* occurrence (and therefore
        the whole series).  ``start_delay`` defaults to one interval.
        """
        if interval <= 0:
            raise SimulationError("recurring interval must be positive")

        def tick() -> None:
            action()
            # the action may have cancelled the series via the handle; at
            # that point handle.current is this already-fired event, so
            # only the handle's own flag can stop the recurrence
            if handle.cancelled:
                return
            handle.current = self.schedule(interval, tick)
            handle.time = handle.current.time

        handle = _SeriesHandle(
            self.schedule(
                interval if start_delay is None else start_delay, tick
            ),
            action,
        )
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _, event = heappop(heap)
            if event.cancelled:
                continue
            self._now = time
            self._events_executed += 1
            event.action()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap is empty or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        samplers and callers see a consistent end-of-run time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                self._events_executed += 1
                event.action()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
