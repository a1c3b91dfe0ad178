"""The in-process serving workloads: serve-live, fleet-recorded, fleet-sharded.

Each workload is a small class with the same shape: ``setup()`` builds
the service from the saved meter and returns its wall seconds,
``step()`` advances one slice of simulated ticks, and ``expected()``
says how many site-windows the ticks so far must have decided.  Only
public calls drive the program: ``CapacityService`` / ``attach``,
``ShardedCapacityService`` / ``attach_factory`` / ``advance`` and
``Simulator.run``.

Given a ``HostSpeed``, a workload samples the host's speed from
simulator timers of its own, right before and after every tick.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from inputs import (
    BUILD,
    SCALE,
    WINDOW,
    WORKERS,
    Prepared,
    ReplayPlan,
    fleet_plan,
    load_meter,
    recorded_websites,
    testbed_tiers,
)
from measure import (
    HostSpeed,
    LagProbe,
    SlowestOf,
    proc_peak_rss_mb,
    read_speed_samples,
    self_peak_rss_mb,
)

#: sites in the simulated and in the recorded fleets
LIVE_SITES = 4
FLEET_SITES = 256
#: ticks per slice: `repro serve` and `serve-http --workers` use 50
SLICE_TICKS = 50
#: sites whose sharded decisions are re-derived single-process
CHECK_SITES = 8


def _testbed() -> Any:
    from repro.experiments.testbed import TestbedConfig

    return TestbedConfig()


class ServeLive:
    """`repro serve` single process at CLI defaults: 4 simulated sites.

    Each site has its own website and RBE seed (ordering mix, stress
    profile, scale 0.2).  When the schedule ends inside the timed phase
    the next session is set up with fresh seeds; that set-up is paused
    out of the timed phase.
    """

    name = "serve-live"

    def __init__(
        self,
        prepared: Prepared,
        seed: int,
        probe: LagProbe,
        speed: Optional[HostSpeed] = None,
    ) -> None:
        from repro.experiments.testbed import stress_schedule
        from repro.workload.tpcw import STANDARD_MIXES

        self.prepared = prepared
        self.seed = seed
        self.probe = probe
        self.speed = speed
        self.config = _testbed()
        self.mix = STANDARD_MIXES["ordering"]
        self.schedule = stress_schedule(self.mix, self.config, scale=SCALE)
        self.session = 0
        self.service: Any = None
        self.sim: Any = None
        self.now = 0.0
        self._expected = 0

    def setup(self) -> float:
        """Build session ``self.session``; discard any unserved one."""
        from repro.control.service import CapacityService, SiteSpec
        from repro.simulator import (
            AppServer,
            DatabaseServer,
            MultiTierWebsite,
            Simulator,
        )
        from repro.workload.generator import ScheduleDriver
        from repro.workload.rbe import RemoteBrowserEmulator

        self._stop()
        started = time.perf_counter()
        config = self.config
        meter = load_meter(self.prepared)
        specs = [
            SiteSpec(name=f"site{i}", seed=1000 * self.seed + 10 * self.session + i)
            for i in range(LIVE_SITES)
        ]
        service = CapacityService(
            meter,
            specs,
            labeler=self.prepared.labeler,
            on_decision=self.probe.on_decision,
        )
        sim = Simulator()
        # the lag mark runs before the samplers and the flush at a tick
        sim.every(config.sampling_interval, self.probe.mark)
        websites = {}
        for spec in specs:
            app = AppServer(sim, workers=config.app_workers)
            db = DatabaseServer(sim, connections=config.db_connections)
            website = MultiTierWebsite(sim, app, db)
            websites[spec.name] = website
            rbe = RemoteBrowserEmulator(
                sim,
                service.front_end(sim, spec.name, website),
                self.mix,
                think_time_mean=config.think_time_mean,
                continuity=config.continuity,
                seed=spec.seed,
            )
            ScheduleDriver(sim, rbe, self.schedule)
        service.attach(
            sim,
            websites,
            interval=config.sampling_interval,
            hpc_noise=config.hpc_noise,
            os_noise=config.os_noise,
        )
        if self.speed is not None:
            self.speed.bracket(sim, config.sampling_interval)
        self.service, self.sim, self.now = service, sim, 0.0
        return time.perf_counter() - started

    def step(self) -> float:
        """One slice; returns set-up seconds spent inside it (a restart)."""
        paused = 0.0
        if self.now >= self.schedule.duration:
            self.session += 1
            paused = self.setup()
        interval = self.config.sampling_interval
        self.now = min(self.now + SLICE_TICKS * interval, self.schedule.duration)
        self.sim.run(until=self.now)
        return paused

    def exhausted(self) -> bool:
        return self.now >= self.schedule.duration

    def _stop(self) -> None:
        if self.service is not None:
            self._expected += LIVE_SITES * (self.service.ticks // WINDOW)
            self.service.stop()
            self.service = None

    def expected(self) -> int:
        current = 0
        if self.service is not None:
            current = LIVE_SITES * (self.service.ticks // WINDOW)
        return self._expected + current

    def close(self) -> None:
        self._stop()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class FleetRecorded:
    """256 live sites on recorded websites, single process.

    Snapshots and drift detection are on (detector only).  No traffic
    is simulated: the simulator only runs the timers.
    """

    name = "fleet-recorded"
    slice_ticks = WINDOW

    def __init__(
        self,
        prepared: Prepared,
        seed: int,
        probe: LagProbe,
        speed: Optional[HostSpeed] = None,
        only: Optional[List[str]] = None,
    ) -> None:
        self.prepared = prepared
        self.probe = probe
        self.speed = speed
        self.config = _testbed()
        self.specs, self.plan = fleet_plan(seed, FLEET_SITES, prepared.runs)
        if only is not None:
            self.specs = [spec for spec in self.specs if spec.name in only]
        self.service: Any = None
        self.sim: Any = None
        self.now = 0.0

    def setup(self) -> float:
        from repro.control.service import CapacityService
        from repro.simulator import Simulator

        self.close()
        started = time.perf_counter()
        config = self.config
        meter = load_meter(self.prepared)
        service = CapacityService(
            meter,
            self.specs,
            labeler=self.prepared.labeler,
            on_decision=self.probe.on_decision,
        )
        service.enable_snapshots()
        service.enable_drift()
        sim = Simulator()
        sim.every(config.sampling_interval, self.probe.mark)
        names = [spec.name for spec in self.specs]
        service.attach(
            sim,
            recorded_websites(names, self.plan, self.prepared.runs),
            interval=config.sampling_interval,
            hpc_noise=config.hpc_noise,
            os_noise=config.os_noise,
        )
        if self.speed is not None:
            self.speed.bracket(sim, config.sampling_interval)
        self.service, self.sim, self.now = service, sim, 0.0
        return time.perf_counter() - started

    def step(self) -> float:
        self.now += self.slice_ticks * self.config.sampling_interval
        self.sim.run(until=self.now)
        return 0.0

    def expected(self) -> int:
        return len(self.specs) * (self.service.ticks // WINDOW)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


def recorded_shard(
    service: Any,
    plan: ReplayPlan,
    runs: Dict[str, List[Any]],
    speed_dir: Optional[str] = None,
) -> Any:
    """``attach_factory`` body: one shard's recorded websites, attached.

    It runs in the shard's worker.  With ``speed_dir`` the worker samples
    the host's speed and writes each sample to its own file there.
    """
    from repro.simulator import Simulator

    config = _testbed()
    sim = Simulator()
    names = [site.name for site in service.sites]
    service.attach(
        sim,
        recorded_websites(names, plan, runs, testbed_tiers()),
        interval=config.sampling_interval,
        hpc_noise=config.hpc_noise,
        os_noise=config.os_noise,
    )
    if speed_dir is not None:
        # open as long as the worker lives: its timers write every sample
        sink = open(
            Path(speed_dir) / f"{os.getpid()}.txt", "a", buffering=1,
            encoding="ascii",
        )
        HostSpeed(sink).bracket(sim, config.sampling_interval)
    # recorded websites replay in a loop: the schedule never ends
    return sim, 1e18


class FleetSharded:
    """The recorded fleet through ``ShardedCapacityService``, 2 workers.

    It advances in 50-tick slices, as ``serve-http --workers N`` does; a
    decision's lag runs from the start of the ``advance`` call that
    returned it.
    """

    name = "fleet-sharded"

    def __init__(
        self,
        prepared: Prepared,
        seed: int,
        probe: LagProbe,
        speed: Optional[HostSpeed] = None,
    ) -> None:
        self.prepared = prepared
        self.seed = seed
        self.probe = probe
        self.speed = speed
        #: the workers' host-speed samples, one file per worker
        self.speed_dir = BUILD / "speed" / f"{self.name}.{os.getpid()}"
        #: the last closed pool's workers' samples
        self.worker_speeds: List[HostSpeed] = []
        self.config = _testbed()
        self.specs, self.plan = fleet_plan(seed, FLEET_SITES, prepared.runs)
        self.service: Any = None
        self.now = 0.0
        probe.keep_sites(self.check_sites())

    def check_sites(self) -> List[str]:
        """Sites at both ends of the fleet, so both shards are checked."""
        names = [spec.name for spec in self.specs]
        half = CHECK_SITES // 2
        return names[:half] + names[-half:]

    def setup(self) -> float:
        from repro.control.shard import ShardedCapacityService

        self.close()
        started = time.perf_counter()
        meter = load_meter(self.prepared)
        service = ShardedCapacityService(
            meter,
            self.specs,
            workers=WORKERS,
            labeler=self.prepared.labeler,
            on_decision=self.probe.on_decision,
        )
        service.enable_snapshots()
        service.enable_drift()
        speed_dir = None
        if self.speed is not None:
            self.speed_dir.mkdir(parents=True, exist_ok=True)
            speed_dir = str(self.speed_dir)
        service.attach_factory(
            recorded_shard, self.plan, self.prepared.runs, speed_dir
        )
        self.service, self.now = service, 0.0
        return time.perf_counter() - started

    def step(self) -> float:
        self.now += SLICE_TICKS * self.config.sampling_interval
        self.probe.mark()
        self.service.advance(self.now)
        return 0.0

    def expected(self) -> int:
        return FLEET_SITES * (self.service.ticks // WINDOW)

    def close(self) -> None:
        """Stop the pool and keep its workers' host-speed samples."""
        pids: List[Optional[int]] = []
        if self.service is not None:
            pool = self.service.pool
            pids = [pool.pid(w) for w in range(pool.size)]
            self.service.close()
            self.service = None
        if self.speed_dir.is_dir():
            files = {path.stem: path for path in self.speed_dir.glob("*.txt")}
            self.worker_speeds = [
                read_speed_samples(files[str(pid)])
                for pid in pids
                if str(pid) in files
            ]
            for path in files.values():
                path.unlink()
            self.speed_dir.rmdir()

    def timed_speed(self) -> SlowestOf:
        """The served pool's host speed, for its timed phase."""
        return SlowestOf(self.worker_speeds)

    def peak_rss_mb(self) -> float:
        """This process plus the live shard workers."""
        pool = self.service.pool
        workers = [pool.pid(w) for w in range(pool.size)]
        return self_peak_rss_mb() + sum(
            proc_peak_rss_mb(pid) for pid in workers if pid is not None
        )

    def reference_signatures(self, ticks: int) -> Dict[str, str]:
        """``check_sites()`` served single-process, as fleet-recorded does."""
        from repro.faults.campaign import decision_signature

        names = self.check_sites()
        probe = LagProbe()
        probe.keep_sites(names)
        reference = FleetRecorded(self.prepared, self.seed, probe, only=names)
        reference.setup()
        reference.sim.run(until=ticks * self.config.sampling_interval)
        reference.close()
        return {name: decision_signature(probe.kept[name]) for name in names}


WORKLOADS = {
    ServeLive.name: ServeLive,
    FleetRecorded.name: FleetRecorded,
    FleetSharded.name: FleetSharded,
}
