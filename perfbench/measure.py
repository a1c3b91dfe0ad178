"""Small measurement helpers shared by every workload.

Timings are reported as a median and as the highest percentile that
still has at least ten samples beyond it, always with the sample count,
so a tail figure never rests on one or two outliers.

The end-to-end timings are in reference seconds: wall seconds scaled by
how fast the host ran a fixed calibration kernel at the time
(``HostSpeed``), so that a change to the program shows and the load of
the host's other tenants does not.  DESIGN.md gives the figures.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import resource
import time
from dataclasses import dataclass
from statistics import median
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with ``TAIL_BEYOND`` samples beyond."""

    value: float
    percentile: float
    samples: int
    beyond: int

    def describe(self, name: str, unit: str) -> str:
        return (
            f"# {name} = {self.value:.4f} {unit} at p{self.percentile:.2f} "
            f"of {self.samples} samples ({self.beyond} beyond)"
        )


def tail(values: Sequence[float]) -> Tail:
    """The ``(n - 10)``-th smallest value: ten samples lie beyond it.

    Raises when there are too few samples for such a percentile, which
    fails the run rather than reporting a tail of nothing.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} samples: a tail needs more than {TAIL_BEYOND}"
        )
    index = n - TAIL_BEYOND - 1
    beyond = n - 1 - index
    return Tail(
        value=ordered[index],
        percentile=100.0 * (index + 1) / n,
        samples=n,
        beyond=beyond,
    )


def p50(values: Iterable[float]) -> float:
    listed: List[float] = list(values)
    if not listed:
        raise ValueError("median of no samples")
    return float(median(listed))


class LagProbe:
    """Decision lag and decision quality, seen from ``on_decision``.

    ``mark()`` stamps the start of the call that processes a tick: a
    simulator timer the benchmark registers before ``attach`` (so it
    runs first at every tick instant), or the start of an ``advance``
    slice.  Each decision's lag is the wall time from the latest mark
    to its arrival at ``on_decision``.
    """

    def __init__(self) -> None:
        self.started = time.perf_counter()
        #: (arrival, lag, site, truth, predicted state, held, degraded)
        self.records: List[Tuple[float, float, str, int, int, bool, bool]] = []
        #: site -> its whole decisions, for the sites in keep_sites()
        self.kept: Dict[str, List[Any]] = {}

    def keep_sites(self, names: Iterable[str]) -> None:
        for name in names:
            self.kept.setdefault(name, [])

    def mark(self) -> None:
        self.started = time.perf_counter()

    def on_decision(self, name: str, decision: Any) -> None:
        now = time.perf_counter()
        prediction = decision.prediction
        self.records.append(
            (
                now,
                now - self.started,
                name,
                int(decision.truth),
                int(prediction.state),
                bool(decision.held),
                bool(prediction.degraded),
            )
        )
        kept = self.kept.get(name)
        if kept is not None:
            kept.append(decision)


def balanced_accuracy(records: Sequence[Tuple[Any, ...]]) -> float:
    """BA of predicted state against ``SlaOracle`` truth (the repo's own)."""
    from repro.learners.validation import balanced_accuracy as score

    truth = np.array([r[3] for r in records], dtype=int)
    predicted = np.array([r[4] for r in records], dtype=int)
    return float(score(truth, predicted))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def thread_cpu_s(pid: int, tid: int) -> float:
    """User + system CPU seconds one thread of ``pid`` has used."""
    with open(f"/proc/{pid}/task/{tid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # fields after the command name start at field 3 (state)
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: the calibration kernel's time on a quiet 2-vCPU VM at 2.0 GHz; a
#: reference second is a wall second on a host that runs it this fast
REFERENCE_S = 0.25e-3
#: calibration samples within this many wall seconds of an interval
#: speak for it
NEAR_S = 0.05
#: simulated seconds ahead of a tick at which its first sample runs
AHEAD_S = 1e-6
#: samples taken back to back before and after a set-up
BURST = 20
_VECTOR = np.arange(32.0)


def kernel() -> float:
    """Fixed work in the program's own mix: heap, dict, float, small numpy."""
    heap: List[Tuple[float, int]] = []
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(200):
        key = (i * 7919) % 211
        heapq.heappush(heap, (key * 0.5, i))
        table[key % 31] = table.get(key % 31, 0.0) + i * 0.25
    while heap:
        total += heapq.heappop(heap)[0]
    vector = _VECTOR
    for _ in range(16):
        vector = np.sqrt(vector * 1.0001 + 1.0)
    return total + float(vector[-1]) + sum(table.values())


class HostSpeed:
    """How slow the host runs, from the calibration kernel's time.

    ``sample()`` times one kernel run; ``bracket()`` runs it twice right
    before and twice right after every simulated tick, so the samples
    follow the host through the run and close in on each tick's work.  A
    stretch of wall time converts to reference seconds by dividing by
    the slowdown: the mean kernel time near it over ``REFERENCE_S``.
    The mean, not the median: a shared host switches between a fast and
    a slow state, the kernel's times fall in two clusters, and the
    program runs in the same mix of states.  The collector is paused
    while the kernel runs, so a collection the program's allocations
    are due for never lands inside a sample.  With a ``sink`` each
    sample is also written as a line (a shard worker's samples reach
    the benchmark process that way).
    """

    def __init__(self, sink: Optional[IO[str]] = None) -> None:
        #: (wall instant the run ended, its seconds), in time order
        self.samples: List[Tuple[float, float]] = []
        self._ends: List[float] = []
        self._sink = sink
        kernel()  # warm, so the first sample is not a cold one

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((ended, ended - started))
        self._ends.append(ended)
        if self._sink is not None:
            self._sink.write(f"{ended!r} {ended - started!r}\n")

    def bracket(self, sim: Any, interval: float) -> None:
        """Sample twice right before and twice right after every tick.

        Call it after ``CapacityService.attach``: the second timer then
        runs behind the service's flush at the tick instant, and the
        first runs ``AHEAD_S`` before the lag mark, so no sample sits
        between a tick's lag mark and its decisions.
        """
        sim.every(interval, self.pair, start_delay=interval - AHEAD_S)
        sim.every(interval, self.pair)

    def pair(self) -> None:
        self.sample()
        self.sample()

    def burst(self) -> None:
        """Sample ``BURST`` times back to back."""
        for _ in range(BURST):
            self.sample()

    def set_up(self, setup: Callable[[], float]) -> float:
        """Run ``setup`` (it returns its wall seconds); reference seconds.

        The host's speed is sampled in a burst right before and after.
        """
        self.burst()
        started = time.perf_counter()
        seconds = float(setup())
        self.burst()
        return seconds / self.slowdown(started, started + seconds)

    def extend(self, samples: Iterable[Tuple[float, float]]) -> None:
        self.samples.extend((float(t), float(d)) for t, d in samples)
        self.samples.sort()
        self._ends = [t for t, _ in self.samples]

    def spent(self, t0: float, t1: float) -> float:
        """Wall seconds the kernel itself took inside ``[t0, t1]``."""
        return sum(d for t, d in self.samples if t0 <= t <= t1)

    def slowdown(self, t0: float, t1: float) -> float:
        """Host slowdown over ``[t0, t1]``, from samples within ``NEAR_S``.

        With no sample that near, the five nearest speak for it.
        """
        lo = bisect.bisect_left(self._ends, t0 - NEAR_S)
        hi = bisect.bisect_right(self._ends, t1 + NEAR_S)
        near = [d for _, d in self.samples[lo:hi]]
        if not near:
            if not self.samples:
                raise ValueError("no host speed samples")
            ranked = sorted(
                self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1))
            )
            near = [d for _, d in ranked[:5]]
        return sum(near) / len(near) / REFERENCE_S


class SlowestOf:
    """The host speed parallel workers with equal shares of work wait on.

    A slice ends when the worker on the slowest core is done, so a
    stretch of wall time scales by the largest of the workers'
    slowdowns; each worker's own kernel runs lengthen its share alike,
    so ``spent`` is their mean.
    """

    def __init__(self, parts: Sequence[HostSpeed]) -> None:
        if not parts:
            raise ValueError("no workers' host speed samples")
        self.parts = list(parts)
        self.samples = [s for part in self.parts for s in part.samples]

    def spent(self, t0: float, t1: float) -> float:
        return sum(part.spent(t0, t1) for part in self.parts) / len(self.parts)

    def slowdown(self, t0: float, t1: float) -> float:
        return max(part.slowdown(t0, t1) for part in self.parts)


def read_speed_samples(path: Any) -> HostSpeed:
    """The samples a ``HostSpeed`` sink wrote to ``path``."""
    samples = []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
    speed = HostSpeed()
    speed.extend(samples)
    return speed
