"""Generic tier server model.

A :class:`TierServer` models one tier of the website (the Tomcat
application server or the MySQL database server in the paper's testbed)
as a bounded worker pool in front of a contended multi-core CPU:

* a request first acquires a **worker** (a Tomcat thread / MySQL
  connection); if none is free it waits in a FIFO backlog;
* holding the worker, the request executes one or more **CPU phases**;
  between phases it may be **blocked** on a downstream tier (the thread
  is held but not runnable — exactly how a synchronous servlet waits on
  JDBC);
* all runnable phases share the CPU by **exact processor sharing**:
  each progresses at a common rate set by core count, scheduling
  overhead (:class:`~repro.simulator.resources.ContentionModel`) and
  cache-miss stalls (:class:`~repro.simulator.resources.CacheModel`).

Processor sharing is simulated exactly in O(log n) per event with
virtual time: because every runnable phase progresses at the same rate
``r(state)``, a phase admitted at virtual progress ``V`` with demand
``d`` completes when ``V`` reaches ``V + d``.  The server advances
``V`` piecewise-linearly between state changes and keeps a heap of
phase completion marks; whenever concurrency, working set or background
load changes the rate, the next completion is simply rescheduled.  This
avoids the metastable artifacts of quasi-static approximations (a
transient arrival burst must drain at full speed once concurrency
falls, not persist at its admission-time slowdown).

Every physical quantity the telemetry layer needs — utilization,
runnable and blocked thread counts, queue length, work completed, cache
pressure — is accumulated as a time-weighted integral and drained by
:meth:`TierServer.sample`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .engine import Event, Simulator
from .resources import CacheModel, ContentionModel, WorkerPool

__all__ = ["HardwareSpec", "Job", "TierSample", "TierServer", "Session"]


@dataclass(frozen=True)
class HardwareSpec:
    """Static description of a tier's machine.

    ``speed_factor`` expresses per-core throughput relative to the
    reference machine on which job demands are calibrated (the paper's
    2.0 GHz Pentium 4 app server).  ``instructions_per_work`` converts
    one nominal CPU-second of useful work into retired instructions for
    the synthetic hardware counters.
    """

    name: str
    cores: int = 1
    frequency_ghz: float = 2.0
    speed_factor: float = 1.0
    l2_cache_kb: float = 512.0
    memory_mb: float = 512.0
    instructions_per_work: float = 1.6e9

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")


@dataclass
class Job:
    """One unit of tier work: a servlet execution or a database query.

    ``demand`` is nominal CPU seconds on the reference machine.
    ``footprint_kb`` is the hot working set the job keeps in the tier's
    cache (L2 for the app tier, buffer pool for the DB tier).
    """

    demand: float
    footprint_kb: float = 32.0
    kind: str = "generic"

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError("job demand must be non-negative")
        if self.footprint_kb < 0:
            raise ValueError("job footprint must be non-negative")


@dataclass
class TierSample:
    """Physical statistics for one sampling interval of one tier."""

    tier: str
    t_start: float
    t_end: float
    arrived: int = 0
    admitted: int = 0
    dropped: int = 0
    completed: int = 0
    work_done: float = 0.0  # nominal CPU-seconds of useful work completed
    background_work: float = 0.0  # CPU-seconds burned by monitoring daemons
    core_busy_time: float = 0.0  # integral of busy cores dt
    runnable_avg: float = 0.0
    blocked_avg: float = 0.0
    threads_avg: float = 0.0
    queue_avg: float = 0.0
    queue_wait_sum: float = 0.0
    service_time_sum: float = 0.0
    residence_time_sum: float = 0.0
    miss_rate_avg: float = 0.0
    cache_pressure_avg: float = 0.0
    working_set_kb: float = 0.0  # instantaneous at sample time
    cores: int = 1
    workers: int = 1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def throughput(self) -> float:
        """Completed jobs per second."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of total core capacity that was busy (0..1)."""
        if self.duration <= 0:
            return 0.0
        return self.core_busy_time / (self.duration * self.cores)

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_sum / self.admitted if self.admitted else 0.0

    @property
    def mean_service_time(self) -> float:
        return self.service_time_sum / self.completed if self.completed else 0.0

    @property
    def mean_residence_time(self) -> float:
        return (
            self.residence_time_sum / self.completed if self.completed else 0.0
        )


@dataclass
class Session:
    """A request's stay on one tier: worker held from admit to finish."""

    job: Job
    on_admitted: Callable[["Session"], None]
    arrival_time: float = 0.0
    admit_time: float = 0.0
    runnable: bool = False
    service_time: float = 0.0
    _finished: bool = False


@dataclass
class _Phase:
    """A runnable CPU burst inside the processor-sharing core."""

    demand: float
    session: Optional[Session]  # None for background work
    footprint_kb: float
    on_done: Optional[Callable]
    start_wall: float


class TierServer:
    """One tier of the multi-tier website.  See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        spec: HardwareSpec,
        *,
        workers: int,
        queue_capacity: Optional[int] = None,
        contention: Optional[ContentionModel] = None,
        cache: Optional[CacheModel] = None,
        miss_stall_factor: float = 2.0,
        queue_in_working_set: float = 1.0,
        blocked_in_working_set: float = 1.0,
    ):
        """Create a tier.

        Parameters
        ----------
        workers:
            Pool size (Tomcat maxThreads / MySQL max_connections).
        queue_capacity:
            Backlog bound; None means unbounded (Tomcat acceptCount is
            large in the paper's default configuration).
        miss_stall_factor:
            How strongly cache misses inflate service time; memory-bound
            tiers (the DB) use larger values.
        queue_in_working_set:
            Weight of *queued* jobs' footprints in the cache working
            set.  For a database buffer pool the data of soon-to-run
            queries churns the pool (weight 1); for a processor L2 only
            running threads matter (weight 0).
        blocked_in_working_set:
            Weight of *blocked* sessions' footprints.  A servlet thread
            waiting on JDBC is off-CPU, so its data ages out of the L2
            (weight 0); a query's pages stay pinned in the buffer pool
            for its whole stay (weight 1).
        """
        self.sim = sim
        self.spec = spec
        self.pool = WorkerPool(workers, queue_capacity)
        self.contention = contention or ContentionModel(cores=spec.cores)
        if self.contention.cores != spec.cores:
            raise ValueError("contention model core count must match spec")
        self.cache = cache or CacheModel(capacity=spec.l2_cache_kb)
        self.miss_stall_factor = miss_stall_factor
        self.queue_in_working_set = queue_in_working_set
        self.blocked_in_working_set = blocked_in_working_set

        # live thread-state counters
        self._runnable = 0  # foreground phases in the PS core
        self._bg_active = 0  # background phases in the PS core
        self._blocked = 0
        self._ws_runnable_kb = 0.0
        self._ws_blocked_kb = 0.0
        self._ws_queued_kb = 0.0

        # processor-sharing core; _resync derives _miss, _pressure and
        # _rate for the current state and _advance integrates them
        self._virtual = 0.0  # common progress of all runnable phases
        self._rate = 0.0  # d(virtual)/dt under the current state
        self._miss = 0.0  # cache miss rate under the current state
        self._pressure = 0.0  # cache pressure under the current state
        self._phase_heap: List[Tuple[float, int, _Phase]] = []
        self._phase_seq = itertools.count()
        self._completion_event: Optional[Event] = None

        # time-weighted accumulators
        self._last_advance = sim.now
        self._int_core_busy = 0.0
        self._int_runnable = 0.0
        self._int_blocked = 0.0
        self._int_threads = 0.0
        self._int_queue = 0.0
        self._int_miss_rate = 0.0
        self._int_pressure = 0.0

        # counters
        self._completed = 0
        self._work_done = 0.0
        self._background_work = 0.0
        self._queue_wait_sum = 0.0
        self._service_time_sum = 0.0
        self._residence_time_sum = 0.0
        self._sample_start = sim.now
        self._resync()

    # ------------------------------------------------------------------
    # live state inspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def runnable(self) -> int:
        """Threads currently executing a CPU phase (incl. background)."""
        return self._runnable + self._bg_active

    @property
    def blocked(self) -> int:
        """Threads held but waiting on a downstream tier."""
        return self._blocked

    @property
    def threads_in_use(self) -> int:
        return self.pool.in_use

    @property
    def queue_length(self) -> int:
        return self.pool.queue_length

    def working_set_kb(self) -> float:
        """Current cache working set offered by active and queued jobs."""
        return (
            self._ws_runnable_kb
            + self.blocked_in_working_set * self._ws_blocked_kb
            + self.queue_in_working_set * self._ws_queued_kb
        )

    def current_miss_rate(self) -> float:
        return self.cache.miss_rate(self.working_set_kb())

    def progress_rate(self) -> float:
        """Per-phase progress (nominal CPU-seconds per wall second)."""
        n = self.runnable
        if n == 0:
            return 0.0
        raw = self.spec.speed_factor * self.contention.per_request_rate(n)
        miss = self.cache.miss_rate(self.working_set_kb())
        return raw / (1.0 + miss * self.miss_stall_factor)

    # ------------------------------------------------------------------
    # accounting + processor-sharing core
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Integrate state up to now using the rate in force since then.

        Every mutator ends in :meth:`_resync`, and time only moves
        between events, so the state integrated here is always the one
        the last ``_resync`` derived ``_miss``, ``_pressure`` and
        ``_rate`` from.
        """
        now = self.sim.now
        dt = now - self._last_advance
        if dt <= 0:
            return
        runnable = self._runnable
        bg_active = self._bg_active
        n = runnable + bg_active
        pool = self.pool
        cores = self.spec.cores
        self._int_core_busy += (cores if cores < n else n) * dt
        self._int_runnable += n * dt
        self._int_blocked += self._blocked * dt
        self._int_threads += pool.in_use * dt
        self._int_queue += pool.queue_length * dt
        self._int_miss_rate += self._miss * dt
        self._int_pressure += self._pressure * dt
        rate = self._rate
        if n > 0 and rate > 0:
            progress = rate * dt
            self._virtual += progress
            self._work_done += progress * runnable
            self._background_work += progress * bg_active
        self._last_advance = now

    def _resync(self) -> None:
        """Derive the cache state and PS rate; reschedule the next completion.

        This is the one place the rate is derived.  The arithmetic is
        :meth:`CacheModel.pressure`, :meth:`CacheModel.miss_rate`,
        :meth:`ContentionModel.per_request_rate` and
        :meth:`progress_rate` inlined term for term, so the stored
        values equal theirs bit for bit.
        """
        cache = self.cache
        capacity = cache.capacity
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        # "if not x > 0.0: x = 0.0" gives max(0.0, x) for every x, -0.0
        # and NaN included, and "if not x < 1.0: x = 1.0" min(1.0, x);
        # the builtin calls took nearly half of this method's time
        pressure = (
            self._ws_runnable_kb
            + self.blocked_in_working_set * self._ws_blocked_kb
            + self.queue_in_working_set * self._ws_queued_kb
        ) / capacity - 1.0
        if not pressure > 0.0:
            pressure = 0.0
        base = cache.base_miss_rate
        miss = base + (cache.max_miss_rate - base) * pressure / (
            pressure + cache.knee
        )
        self._pressure = pressure
        self._miss = miss
        n = self._runnable + self._bg_active
        if n == 0:
            rate = 0.0
        else:
            contention = self.contention
            cores = contention.cores
            share = cores / n
            if not share < 1.0:
                share = 1.0
            excess = n - cores if n > cores else 0
            efficiency = 1.0 / (1.0 + contention.cs_overhead * excess)
            rate = (
                self.spec.speed_factor
                * (share * efficiency)
                / (1.0 + miss * self.miss_stall_factor)
            )
        self._rate = rate
        heap = self._phase_heap
        if not heap:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        if rate <= 0:
            raise RuntimeError("active phases with zero progress rate")
        delay = (heap[0][0] - self._virtual) / rate
        if not delay > 0.0:
            delay = 0.0
        self._completion_event = self.sim.reschedule(
            self._completion_event, delay, self._fire
        )

    def _fire(self) -> None:
        """Complete every phase whose virtual mark has been reached."""
        self._completion_event = None
        self._advance()
        finished: List[_Phase] = []
        while (
            self._phase_heap
            and self._phase_heap[0][0] <= self._virtual + 1e-9
        ):
            _, _, phase = heapq.heappop(self._phase_heap)
            finished.append(phase)
            if phase.session is not None:
                self._runnable -= 1
                self._blocked += 1
                self._ws_runnable_kb -= phase.footprint_kb
                self._ws_blocked_kb += phase.footprint_kb
                phase.session.runnable = False
                phase.session.service_time += self.sim.now - phase.start_wall
            else:
                self._bg_active -= 1
                self._ws_runnable_kb -= phase.footprint_kb
        self._resync()
        for phase in finished:
            if phase.on_done is not None:
                if phase.session is not None:
                    phase.on_done(phase.session)
                else:
                    phase.on_done()

    def _enter_phase(self, phase: _Phase) -> None:
        mark = self._virtual + phase.demand
        heapq.heappush(self._phase_heap, (mark, next(self._phase_seq), phase))

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def submit(
        self, job: Job, on_admitted: Callable[[Session], None]
    ) -> Optional[Session]:
        """Ask for a worker.

        ``on_admitted`` fires (possibly synchronously) once the session
        holds a worker; the caller then drives CPU phases with
        :meth:`run_phase` and ends with :meth:`finish`.  Returns None
        when the backlog is full and the job was dropped.
        """
        self._advance()
        session = Session(job=job, on_admitted=on_admitted)
        session.arrival_time = self.sim.now
        outcome = self.pool.try_acquire(self.sim.now, session)
        if outcome == "dropped":
            self._resync()
            return None
        if outcome == "queued":
            self._ws_queued_kb += job.footprint_kb
            self._resync()
            return session
        self._admit(session)
        self._resync()
        return session

    def _admit(self, session: Session) -> None:
        session.admit_time = self.sim.now
        self._queue_wait_sum += session.admit_time - session.arrival_time
        self._ws_blocked_kb += session.job.footprint_kb
        self._blocked += 1  # holds a worker, not yet running a phase
        session.on_admitted(session)

    def run_phase(
        self,
        session: Session,
        demand: float,
        on_done: Callable[[Session], None],
    ) -> float:
        """Execute ``demand`` nominal CPU-seconds; fire ``on_done`` after.

        Returns the phase duration *estimate* under the instantaneous
        rate; the actual duration depends on how concurrency evolves.
        """
        if session.runnable:
            raise RuntimeError("session already running a phase")
        if session._finished:
            raise RuntimeError("session already finished")
        self._advance()
        self._blocked -= 1
        self._runnable += 1
        self._ws_blocked_kb -= session.job.footprint_kb
        self._ws_runnable_kb += session.job.footprint_kb
        session.runnable = True
        self._enter_phase(
            _Phase(
                demand=demand,
                session=session,
                footprint_kb=session.job.footprint_kb,
                on_done=on_done,
                start_wall=self.sim.now,
            )
        )
        self._resync()
        return demand / self._rate if self._rate > 0 else 0.0

    def run_background(
        self,
        demand: float,
        *,
        footprint_kb: float = 0.0,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Burn CPU outside the worker pool (monitoring daemons etc.).

        Background work competes with request phases for cores and
        pollutes the cache like any runnable thread, which is exactly
        how a metrics collector perturbs the measured system.  Returns
        the estimated duration of the burst.
        """
        if demand < 0:
            raise ValueError("background demand must be non-negative")
        self._advance()
        self._bg_active += 1
        self._ws_runnable_kb += footprint_kb
        self._enter_phase(
            _Phase(
                demand=demand,
                session=None,
                footprint_kb=footprint_kb,
                on_done=on_done,
                start_wall=self.sim.now,
            )
        )
        self._resync()
        return demand / self._rate if self._rate > 0 else 0.0

    def finish(self, session: Session) -> None:
        """Release the worker and hand it to the backlog head, if any."""
        if session.runnable:
            raise RuntimeError("cannot finish a session mid-phase")
        if session._finished:
            raise RuntimeError("session finished twice")
        self._advance()
        session._finished = True
        self._blocked -= 1
        self._ws_blocked_kb -= session.job.footprint_kb
        self._completed += 1
        self._service_time_sum += session.service_time
        self._residence_time_sum += self.sim.now - session.arrival_time
        granted = self.pool.release(self.sim.now)
        if granted is not None:
            next_session = granted
            assert isinstance(next_session, Session)
            self._ws_queued_kb -= next_session.job.footprint_kb
            self._admit(next_session)
        self._resync()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> TierSample:
        """Drain the accounting window into a :class:`TierSample`."""
        self._advance()
        now = self.sim.now
        duration = now - self._sample_start
        pool_stats = self.pool.snapshot(now)
        sample = TierSample(
            tier=self.name,
            t_start=self._sample_start,
            t_end=now,
            arrived=pool_stats.arrived,
            admitted=pool_stats.admitted,
            dropped=pool_stats.dropped,
            completed=self._completed,
            work_done=self._work_done,
            background_work=self._background_work,
            core_busy_time=self._int_core_busy,
            runnable_avg=self._int_runnable / duration if duration else 0.0,
            blocked_avg=self._int_blocked / duration if duration else 0.0,
            threads_avg=self._int_threads / duration if duration else 0.0,
            queue_avg=self._int_queue / duration if duration else 0.0,
            queue_wait_sum=self._queue_wait_sum,
            service_time_sum=self._service_time_sum,
            residence_time_sum=self._residence_time_sum,
            miss_rate_avg=self._int_miss_rate / duration if duration else 0.0,
            cache_pressure_avg=(
                self._int_pressure / duration if duration else 0.0
            ),
            working_set_kb=self.working_set_kb(),
            cores=self.spec.cores,
            workers=self.pool.size,
        )
        self._sample_start = now
        self._completed = 0
        self._work_done = 0.0
        self._background_work = 0.0
        self._queue_wait_sum = 0.0
        self._service_time_sum = 0.0
        self._residence_time_sum = 0.0
        self._int_core_busy = 0.0
        self._int_runnable = 0.0
        self._int_blocked = 0.0
        self._int_threads = 0.0
        self._int_queue = 0.0
        self._int_miss_rate = 0.0
        self._int_pressure = 0.0
        return sample
