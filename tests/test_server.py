"""Unit tests for the tier server and its processor-sharing core."""

import numpy as np
import pytest

from repro.simulator.appserver import AppServer
from repro.simulator.database import DatabaseServer
from repro.simulator.engine import Simulator
from repro.simulator.resources import CacheModel, ContentionModel
from repro.simulator.server import HardwareSpec, Job, TierServer


def make_server(sim, *, cores=1, speed=1.0, workers=4, cs_overhead=0.0,
                cache=None, miss_stall_factor=0.0, **kwargs):
    spec = HardwareSpec(
        name="t", cores=cores, speed_factor=speed, l2_cache_kb=1e9
    )
    return TierServer(
        sim,
        spec,
        workers=workers,
        contention=ContentionModel(cores=cores, cs_overhead=cs_overhead),
        cache=cache or CacheModel(capacity=1e9, base_miss_rate=0.0),
        miss_stall_factor=miss_stall_factor,
        **kwargs,
    )


def run_one(sim, server, demand, footprint=1.0):
    """Submit a single-phase job and return (admit_times, done_times)."""
    done = []

    def on_admitted(session):
        server.run_phase(
            session,
            demand,
            lambda s: (server.finish(s), done.append(sim.now)),
        )

    server.submit(Job(demand=demand, footprint_kb=footprint), on_admitted)
    return done


class TestSingleJob:
    def test_isolated_job_runs_at_nominal_speed(self, sim):
        server = make_server(sim)
        done = run_one(sim, server, demand=2.0)
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_speed_factor_scales_service_time(self, sim):
        server = make_server(sim, speed=2.0)
        done = run_one(sim, server, demand=2.0)
        sim.run()
        assert done == [pytest.approx(1.0)]

    def test_zero_demand_completes_immediately(self, sim):
        server = make_server(sim)
        done = run_one(sim, server, demand=0.0)
        sim.run()
        assert done == [pytest.approx(0.0)]

    def test_service_time_recorded(self, sim):
        server = make_server(sim)
        sessions = []

        def on_admitted(session):
            sessions.append(session)
            server.run_phase(session, 1.5, server.finish)

        server.submit(Job(demand=1.5), on_admitted)
        sim.run()
        assert sessions[0].service_time == pytest.approx(1.5)


class TestProcessorSharing:
    def test_two_jobs_share_one_core(self, sim):
        server = make_server(sim, cores=1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        # both progress at 1/2 speed and finish together at t=2
        assert done_a == [pytest.approx(2.0)]
        assert done_b == [pytest.approx(2.0)]

    def test_two_jobs_two_cores_no_slowdown(self, sim):
        server = make_server(sim, cores=2)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        assert done_a == [pytest.approx(1.0)]
        assert done_b == [pytest.approx(1.0)]

    def test_remaining_job_speeds_up_after_departure(self, sim):
        server = make_server(sim, cores=1)
        done_short = run_one(sim, server, demand=0.5)
        done_long = run_one(sim, server, demand=1.0)
        sim.run()
        # shared at rate 1/2 until short done at t=1 (0.5 each done);
        # long then runs alone: 0.5 remaining at full speed -> t=1.5
        assert done_short == [pytest.approx(1.0)]
        assert done_long == [pytest.approx(1.5)]

    def test_late_arrival_shares_remaining_work(self, sim):
        server = make_server(sim, cores=1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = []
        sim.schedule(
            0.5, lambda: done_b.extend(run_one(sim, server, demand=1.0)) or None
        )
        sim.run()
        # a alone until 0.5 (0.5 left), then shared: a done at 1.5; b has
        # 0.5 left at that point, alone -> done at 2.0
        assert done_a == [pytest.approx(1.5)]
        assert done_b == []  # list captured before b finished

    def test_context_switch_overhead_slows_everyone(self, sim):
        server = make_server(sim, cores=1, cs_overhead=0.1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        # two runnable on one core: share 1/2, efficiency 1/1.1
        assert done_a == [pytest.approx(2.2)]
        assert done_b == [pytest.approx(2.2)]

    def test_cache_misses_inflate_service(self, sim):
        cache = CacheModel(
            capacity=10.0, base_miss_rate=0.0, max_miss_rate=0.5, knee=1e-9
        )
        server = make_server(
            sim, cache=cache, miss_stall_factor=2.0
        )
        # footprint 20 > capacity 10 -> pressure 1 -> miss ~0.5 -> 2x slower
        done = run_one(sim, server, demand=1.0, footprint=20.0)
        sim.run()
        assert done == [pytest.approx(2.0, rel=1e-6)]


class TestWorkerPoolGate:
    def test_queued_job_starts_after_release(self, sim):
        server = make_server(sim, workers=1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        assert done_a == [pytest.approx(1.0)]
        assert done_b == [pytest.approx(2.0)]

    def test_drop_when_backlog_full(self, sim):
        server = make_server(sim, workers=1, queue_capacity=0)
        run_one(sim, server, demand=1.0)
        result = server.submit(Job(demand=1.0), lambda s: None)
        assert result is None

    def test_queue_wait_recorded(self, sim):
        server = make_server(sim, workers=1)
        run_one(sim, server, demand=1.0)
        run_one(sim, server, demand=1.0)
        sim.run()
        sample = server.sample()
        assert sample.queue_wait_sum == pytest.approx(1.0)


class TestLifecycleErrors:
    def test_phase_while_running_raises(self, sim):
        server = make_server(sim)
        captured = []

        def on_admitted(session):
            captured.append(session)
            server.run_phase(session, 1.0, lambda s: server.finish(s))

        server.submit(Job(demand=1.0), on_admitted)
        with pytest.raises(RuntimeError):
            server.run_phase(captured[0], 1.0, lambda s: None)

    def test_finish_mid_phase_raises(self, sim):
        server = make_server(sim)
        captured = []

        def on_admitted(session):
            captured.append(session)
            server.run_phase(session, 1.0, lambda s: None)

        server.submit(Job(demand=1.0), on_admitted)
        with pytest.raises(RuntimeError):
            server.finish(captured[0])

    def test_double_finish_raises(self, sim):
        server = make_server(sim)
        captured = []

        def on_admitted(session):
            captured.append(session)
            server.run_phase(session, 0.5, server.finish)

        server.submit(Job(demand=0.5), on_admitted)
        sim.run()
        with pytest.raises(RuntimeError):
            server.finish(captured[0])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Job(demand=-1.0)

    def test_mismatched_contention_cores_rejected(self, sim):
        spec = HardwareSpec(name="t", cores=2)
        with pytest.raises(ValueError):
            TierServer(
                sim, spec, workers=1, contention=ContentionModel(cores=1)
            )


class TestAccounting:
    def test_work_conservation(self, sim):
        """Total work credited equals total demand submitted."""
        server = make_server(sim, cores=1, workers=10)
        demands = [0.3, 0.5, 0.2, 0.7, 0.4]
        for d in demands:
            run_one(sim, server, demand=d)
        sim.run()
        sample = server.sample()
        assert sample.work_done == pytest.approx(sum(demands), rel=1e-6)
        assert sample.completed == len(demands)

    def test_busy_time_matches_single_job(self, sim):
        server = make_server(sim)
        run_one(sim, server, demand=2.0)
        sim.run()
        sample = server.sample()
        assert sample.core_busy_time == pytest.approx(2.0)
        assert sample.utilization == pytest.approx(2.0 / sample.duration)

    def test_sample_resets_window(self, sim):
        server = make_server(sim)
        run_one(sim, server, demand=1.0)
        sim.run()
        server.sample()
        sim.run(until=2.0)
        sample = server.sample()
        assert sample.completed == 0
        assert sample.work_done == pytest.approx(0.0)

    def test_runnable_average(self, sim):
        server = make_server(sim, cores=2)
        run_one(sim, server, demand=1.0)
        run_one(sim, server, demand=1.0)
        sim.run(until=2.0)
        sample = server.sample()
        # two runnable for 1s over a 2s window
        assert sample.runnable_avg == pytest.approx(1.0)

    def test_blocked_threads_tracked(self, sim):
        server = make_server(sim, workers=2)
        held = []

        server.submit(Job(demand=1.0), lambda s: held.append(s))
        sim.run(until=3.0)  # admitted but never runs a phase: blocked
        sample = server.sample()
        assert sample.blocked_avg == pytest.approx(1.0)
        assert server.blocked == 1

    def test_working_set_weights(self, sim):
        server = make_server(
            sim,
            workers=1,
            queue_in_working_set=0.5,
            blocked_in_working_set=1.0,
        )
        server.submit(Job(demand=1.0, footprint_kb=100.0), lambda s: None)
        server.submit(Job(demand=1.0, footprint_kb=100.0), lambda s: None)
        # one blocked (admitted, no phase), one queued at half weight
        assert server.working_set_kb() == pytest.approx(150.0)

    def test_background_work_accounted_separately(self, sim):
        server = make_server(sim)
        server.run_background(0.5)
        sim.run()
        sample = server.sample()
        assert sample.background_work == pytest.approx(0.5)
        assert sample.work_done == pytest.approx(0.0)

    def test_background_competes_for_cpu(self, sim):
        server = make_server(sim, cores=1)
        server.run_background(1.0)
        done = run_one(sim, server, demand=1.0)
        sim.run()
        # both share the core: job finishes at t=2
        assert done == [pytest.approx(2.0)]

    def test_negative_background_rejected(self, sim):
        server = make_server(sim)
        with pytest.raises(ValueError):
            server.run_background(-1.0)

    def test_tier_sample_properties_empty_window(self, sim):
        server = make_server(sim)
        sample = server.sample()
        assert sample.throughput == 0.0
        assert sample.mean_service_time == 0.0
        assert sample.mean_queue_wait == 0.0


class _ReferencePSCore:
    """The processor-sharing core before the rate was derived once per
    state change: ``_advance`` calls the cache model on every event and
    ``_resync`` cancels the completion and schedules a new one each time.
    Mixed in ahead of a tier class, it is what the production core must
    equal bit for bit."""

    def _advance(self):
        now = self.sim.now
        dt = now - self._last_advance
        if dt <= 0:
            return
        n = self.runnable
        busy_cores = min(n, self.spec.cores)
        self._int_core_busy += busy_cores * dt
        self._int_runnable += n * dt
        self._int_blocked += self._blocked * dt
        self._int_threads += self.pool.in_use * dt
        self._int_queue += self.pool.queue_length * dt
        ws = self.working_set_kb()
        self._int_miss_rate += self.cache.miss_rate(ws) * dt
        self._int_pressure += self.cache.pressure(ws) * dt
        if n > 0 and self._rate > 0:
            progress = self._rate * dt
            self._virtual += progress
            self._work_done += progress * self._runnable
            self._background_work += progress * self._bg_active
        self._last_advance = now

    def _resync(self):
        self._rate = self.progress_rate()
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._phase_heap:
            return
        if self._rate <= 0:
            raise RuntimeError("active phases with zero progress rate")
        head = self._phase_heap[0][0]
        delay = max(0.0, (head - self._virtual) / self._rate)
        self._completion_event = self.sim.schedule(delay, self._fire)


class _ReferenceApp(_ReferencePSCore, AppServer):
    pass


class _ReferenceDb(_ReferencePSCore, DatabaseServer):
    pass


#: (production tier, reference tier, constructor arguments): a 1-core
#: L2 that only runnable threads fill, and a 2-core buffer pool that
#: queued and blocked queries fill too; small pools so requests queue
TIER_PAIRS = {
    "app": (AppServer, _ReferenceApp, {"workers": 6, "queue_capacity": 4}),
    "db": (DatabaseServer, _ReferenceDb, {"connections": 4}),
}

#: exact binary fractions, so completions and arrivals tie often
_WAITS = (0.0, 0.0625, 0.125, 0.25)
_DEMANDS = (0.0, 0.015625, 0.03125, 0.0625, 0.125)


def _check_derived(server):
    """The values ``_resync`` stored are the models' for the live state."""
    ws = server.working_set_kb()
    assert server._pressure == server.cache.pressure(ws)
    assert server._miss == server.cache.miss_rate(ws)
    assert server._rate == server.progress_rate()


def _drive(server_cls, kwargs, seed, *, check=None, until=12.0):
    """Run a seeded script of submit, run_phase, run_background, finish
    and sample; return (samples, log of (what, job, time), events run)."""
    sim = Simulator()
    server = server_cls(sim, **kwargs)
    rng = np.random.default_rng(seed)
    capacity = server.cache.capacity
    samples, log = [], []

    def call(method, *args, **kw):
        result = method(*args, **kw)
        if check is not None:
            check(server)
        return result

    def draw(values):
        return values[int(rng.integers(0, len(values)))]

    def later(action):
        sim.schedule(draw(_WAITS), action)

    def phase_done(session):
        log.append(("phase", session.job.kind, sim.now))
        if rng.random() < 0.4:
            later(lambda: call(server.run_phase, session, draw(_DEMANDS), phase_done))
        else:
            later(lambda: finish(session))

    def finish(session):
        call(server.finish, session)
        log.append(("finish", session.job.kind, sim.now))

    def admitted(session):
        log.append(("admit", session.job.kind, sim.now))
        if rng.random() < 0.7:
            call(server.run_phase, session, draw(_DEMANDS), phase_done)
        else:
            later(lambda: call(server.run_phase, session, draw(_DEMANDS), phase_done))

    def arrive(i):
        job = Job(
            demand=draw(_DEMANDS),
            footprint_kb=capacity * float(rng.uniform(0.02, 0.4)),
            kind=f"job{i}",
        )
        if call(server.submit, job, admitted) is None:
            log.append(("dropped", job.kind, sim.now))

    def background(i):
        call(
            server.run_background,
            draw(_DEMANDS),
            footprint_kb=capacity * float(rng.uniform(0.0, 0.1)),
            on_done=lambda: log.append(("background", f"bg{i}", sim.now)),
        )

    t = 0.0
    for i in range(int(until * 25)):
        t += draw(_WAITS)
        sim.schedule_at(t, lambda i=i: arrive(i))
        if i % 7 == 0:
            sim.schedule_at(t, lambda i=i: background(i))
    sim.every(0.5, lambda: samples.append(call(server.sample)))
    sim.run(until=until)
    samples.append(call(server.sample))
    return samples, log, sim.events_executed


class TestDeriveOnceAgainstReference:
    @pytest.mark.parametrize("tier", sorted(TIER_PAIRS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_samples_and_completions_equal_reference(self, tier, seed):
        production, reference, kwargs = TIER_PAIRS[tier]
        samples, log, events = _drive(production, kwargs, seed)
        ref_samples, ref_log, ref_events = _drive(reference, kwargs, seed)
        assert len(samples) == len(ref_samples) == 25
        for sample, ref in zip(samples, ref_samples):
            assert sample == ref
        assert log == ref_log
        assert events == ref_events
        kinds = {what for what, _, _ in log}
        assert {"admit", "phase", "finish", "background"} <= kinds

    @pytest.mark.parametrize("tier", sorted(TIER_PAIRS))
    def test_stored_rate_matches_models_after_every_step(self, tier):
        production, _, kwargs = TIER_PAIRS[tier]
        samples, _, _ = _drive(production, kwargs, 5, check=_check_derived)
        # the script reaches cache pressure and queueing
        assert max(s.cache_pressure_avg for s in samples) > 0.0
        assert max(s.queue_avg for s in samples) > 0.0

    def test_fresh_tier_holds_idle_miss_rate(self, sim):
        server = make_server(
            sim, cache=CacheModel(capacity=64.0, base_miss_rate=0.05)
        )
        _check_derived(server)
        sim.run(until=2.0)
        assert server.sample().miss_rate_avg == pytest.approx(0.05)
