"""Command-line interface.

Ten subcommands cover the operational loop a downstream user needs:

* ``repro simulate`` — run a workload on the simulated testbed and save
  the measurement run (the expensive step, separable from the rest);
* ``repro train`` — train a :class:`~repro.core.capacity.CapacityMeter`
  from saved (or freshly simulated) training runs and persist it;
* ``repro predict`` — replay a saved run through a saved meter window
  by window, printing the online decisions;
* ``repro evaluate`` — score a saved meter against a saved run
  (overload balanced accuracy + bottleneck accuracy);
* ``repro monitor`` — run a live simulation with a streaming
  :class:`~repro.core.monitor.OnlineCapacityMonitor` attached, printing
  each window's decision as it is made (bounded memory, no saved run);
  ``--checkpoint``/``--resume`` snapshot and restore the full monitor
  state so a crashed monitor resumes without retraining;
* ``repro faults`` — run a deterministic fault-injection campaign
  (counter dropout, value spikes, stalled collectors, lost/duplicated
  records) and report the decision-accuracy degradation vs the clean
  replay, with an optional ``--min-ba`` CI gate;
* ``repro serve`` — run N independent websites behind per-site online
  monitors and AIMD admission gates
  (:class:`~repro.control.service.CapacityService`): one simulator,
  shared batched synopsis inference, per-site checkpoint/resume via
  ``--checkpoint``/``--resume``;
* ``repro report`` — regenerate any of the paper's tables and figures;
* ``repro table1`` — both Table I sub-tables through the parallel
  engine and the persistent artifact cache (``--jobs``, ``--cache-dir``);
* ``repro cache`` — inspect or clear that artifact cache;
* ``repro obs`` — render a recorded metrics event log as Prometheus
  text (``dump``) or self-measure the instrumentation layer's cost on
  the decision path (``overhead``).

``monitor``, ``faults``, ``serve``, ``report`` and ``table1`` accept
``--metrics-out PATH`` to record internal metrics for the invocation
(:mod:`repro.obs`); a ``.jsonl`` suffix selects the event-log shape,
anything else the text exposition.  Without the flag the
instrumentation layer stays disabled and outputs are byte-identical
to earlier releases.

Every command accepts ``--scale`` to shrink simulated durations; 1.0 is
paper scale (3000 s training ramps, 30 s windows).  ``--jobs N`` fans
independent artifacts out over N worker processes (default: all CPUs);
parallel output is bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Callable, Dict, Iterator, Optional, Sequence

from .analysis.metrics import summarize_run
from .core.capacity import CapacityMeter
from .obs import OBS
from .core.labeler import SlaOracle
from .core.synopsis import SynopsisConfig
from .experiments.pipeline import (
    ExperimentPipeline,
    PipelineConfig,
    TRAINING_WORKLOADS,
)
from .experiments.testbed import (
    TestbedConfig,
    run_schedule,
    steady_test_schedule,
    stress_schedule,
    training_schedule,
)
from .telemetry.perfctr import PERFCTR_PROFILE, SYSSTAT_PROFILE
from .telemetry.persistence import load_run, save_run
from .telemetry.sampler import MeasurementRun
from .workload.tpcw import STANDARD_MIXES, make_unknown_mix

__all__ = ["main"]

_COLLECTORS = {
    "none": None,
    "perfctr": PERFCTR_PROFILE,
    "sysstat": SYSSTAT_PROFILE,
}


def _window_for(scale: float) -> int:
    return 30 if scale >= 0.8 else 10


def _make_cache(args: argparse.Namespace, *, default_on: bool):
    """ArtifactCache from ``--cache-dir`` / ``--no-cache``, or None.

    Commands built on the artifact cache (``table1``) default it on;
    the older commands only cache when ``--cache-dir`` is given, so
    their behaviour is unchanged for existing scripts.
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and not default_on:
        return None
    from .parallel import ArtifactCache

    return ArtifactCache(cache_dir)


def _print_build_summary(pipeline, report, jobs: int) -> None:
    """Machine-greppable build/cache counters (CI warm gate)."""
    runs = pipeline.builds["run"]
    synopses = pipeline.builds["synopsis"]
    if report is not None and jobs > 1:
        # worker-side builds are invisible to the parent's counter
        runs += report.runs_built
        synopses += report.synopses_built
    print(f"# jobs: {jobs}")
    print(f"# builds: runs={runs} synopses={synopses}")
    if pipeline.cache is not None:
        for kind, info in pipeline.cache.counters().items():
            print(
                f"# cache {kind}: hits={info['hits']} "
                f"misses={info['misses']} stores={info['stores']}"
            )


def _resolve_mix(name: str):
    if name in STANDARD_MIXES:
        return STANDARD_MIXES[name]
    if name == "unknown":
        return make_unknown_mix()
    raise SystemExit(
        f"unknown mix {name!r}; choose from "
        f"{sorted(STANDARD_MIXES) + ['unknown']}"
    )


def _schedule(profile: str, mix, config: TestbedConfig, scale: float):
    """The load schedule a ``--profile`` names."""
    if profile == "training":
        return training_schedule(mix, config, scale=scale)
    if profile == "test":
        return steady_test_schedule(mix, config, scale=scale)
    return stress_schedule(mix, config, scale=scale)


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def cmd_simulate(args: argparse.Namespace) -> int:
    mix = _resolve_mix(args.mix)
    config = TestbedConfig()
    schedule = _schedule(args.profile, mix, config, args.scale)
    output = run_schedule(
        schedule,
        mix,
        workload_name=f"{args.profile}-{args.mix}",
        seed=args.seed,
        config=config,
        collector=_COLLECTORS[args.collector],
    )
    save_run(output.run, args.out)
    summary = summarize_run(output.run)
    for row in summary.rows():
        print(row)
    print(f"saved {len(output.run)} samples to {args.out}")
    return 0


def _training_runs(args: argparse.Namespace) -> Dict[str, MeasurementRun]:
    runs: Dict[str, MeasurementRun] = {}
    for spec in args.run or []:
        workload, _, path = spec.partition("=")
        if not path:
            raise SystemExit(
                f"--run expects workload=path, got {spec!r}"
            )
        runs[workload] = load_run(path)
    if not runs:
        print(
            f"# no --run given: simulating the standard training "
            f"workloads at scale {args.scale}"
        )
        pipeline = ExperimentPipeline(
            PipelineConfig(scale=args.scale, window=_window_for(args.scale))
        )
        runs = {w: pipeline.training_run(w) for w in TRAINING_WORKLOADS}
    return runs


def cmd_train(args: argparse.Namespace) -> int:
    from .parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    runs = _training_runs(args)
    window = args.window or _window_for(args.scale)
    meter = CapacityMeter(
        level=args.level,
        window=window,
        labeler=SlaOracle(sla_response_time=args.sla),
        synopsis_config=SynopsisConfig(learner=args.learner),
        history_bits=args.history_bits,
        delta=args.delta,
    )
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as executor:
            meter.train(runs, executor=executor)
    else:
        meter.train(runs)
    for (workload, tier), synopsis in sorted(meter.synopses.items()):
        print(
            f"synopsis {workload}/{tier}: attributes {synopsis.attributes} "
            f"(cv {synopsis.cv_score:.3f})"
        )
    meter.save(args.out)
    print(f"saved meter to {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    meter = CapacityMeter.load(args.meter, labeler=SlaOracle())
    run = load_run(args.run)
    instances = meter.instances_for(run)
    if not instances:
        raise SystemExit("run is shorter than one decision window")
    print(f"{'window':>6} {'state':>9} {'bottleneck':>10} {'truth':>6}")
    agree = 0
    for index, instance in enumerate(instances):
        prediction = meter.predict_window(instance.metrics)
        meter.observe(instance.label)
        agree += prediction.state == instance.label
        print(
            f"{index:6d} "
            f"{'OVERLOAD' if prediction.overloaded else 'ok':>9} "
            f"{prediction.bottleneck or '-':>10} "
            f"{'OVERLOAD' if instance.label else 'ok':>6}"
        )
    print(f"# agreement {agree}/{len(instances)}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    meter = CapacityMeter.load(args.meter, labeler=SlaOracle())
    run = load_run(args.run)
    scores = meter.evaluate_run(run)
    print(f"overload balanced accuracy: {scores['overload_ba']:.3f}")
    print(f"bottleneck accuracy:        {scores['bottleneck_accuracy']:.3f}")
    print(
        f"confusion: tp={scores['tp']:.0f} tn={scores['tn']:.0f} "
        f"fp={scores['fp']:.0f} fn={scores['fn']:.0f}"
    )
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    from .core.monitor import MonitorDecision, OnlineCapacityMonitor
    from .simulator import (
        AppServer,
        DatabaseServer,
        MultiTierWebsite,
        Simulator,
    )
    from .workload.generator import ScheduleDriver
    from .workload.rbe import RemoteBrowserEmulator

    # validate the cheap arguments before the expensive training step
    mix = _resolve_mix(args.mix)
    if args.retain is not None and args.retain < 0:
        raise SystemExit("--retain must be non-negative")
    if args.checkpoint_every < 1:
        raise SystemExit("--checkpoint-every must be at least 1 window")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")

    if args.resume:
        meter = None  # the checkpoint embeds the trained meter
    elif args.meter:
        meter = CapacityMeter.load(args.meter, labeler=SlaOracle())
    else:
        print(
            f"# no --meter given: training a fresh {args.level} meter "
            f"at scale {args.scale}"
        )
        pipeline = ExperimentPipeline(
            PipelineConfig(scale=args.scale, window=_window_for(args.scale))
        )
        meter = pipeline.meter(args.level)
    config = TestbedConfig()
    schedule = _schedule(args.profile, mix, config, args.scale)

    sim = Simulator()
    app = AppServer(sim, workers=config.app_workers)
    db = DatabaseServer(sim, connections=config.db_connections)
    website = MultiTierWebsite(sim, app, db)
    rbe = RemoteBrowserEmulator(
        sim,
        website,
        mix,
        think_time_mean=config.think_time_mean,
        continuity=config.continuity,
        seed=args.seed,
    )
    ScheduleDriver(sim, rbe, schedule)

    print(f"{'window':>6} {'state':>9} {'bottleneck':>10} {'truth':>6} {'conf':>5}")

    def show(decision: MonitorDecision) -> None:
        prediction = decision.prediction
        print(
            f"{decision.index:6d} "
            f"{'OVERLOAD' if prediction.overloaded else 'ok':>9} "
            f"{prediction.bottleneck or '-':>10} "
            f"{'OVERLOAD' if decision.truth else 'ok':>6} "
            f"{'yes' if prediction.confident else 'no':>5}"
        )

    if args.resume:
        from .faults import load_checkpoint

        monitor = load_checkpoint(
            args.checkpoint,
            labeler=SlaOracle(),
            retain_decisions=args.retain,
            on_decision=show,
        )
        print(
            f"# resumed from {args.checkpoint}: "
            f"{monitor.counters.windows} windows / "
            f"{monitor.counters.ticks} ticks already folded, "
            f"no retraining"
        )
    else:
        monitor = OnlineCapacityMonitor(
            meter,
            adapt=args.adapt,
            retain_decisions=args.retain,
            on_decision=show,
        )
    if args.checkpoint:
        from .faults import save_checkpoint

        windows_since = [0]
        inner = monitor.on_decision

        def checkpointing(decision: MonitorDecision) -> None:
            if inner is not None:
                inner(decision)
            windows_since[0] += 1
            if windows_since[0] >= args.checkpoint_every:
                windows_since[0] = 0
                save_checkpoint(monitor, args.checkpoint)

        monitor.on_decision = checkpointing
    sampler = monitor.attach(
        sim,
        website,
        workload=f"{args.profile}-{args.mix}",
        interval=config.sampling_interval,
        hpc_noise=config.hpc_noise,
        os_noise=config.os_noise,
        seed=args.seed,
    )
    sim.run(until=schedule.duration)
    sampler.stop()
    if args.checkpoint:
        from .faults import save_checkpoint

        # final snapshot captures the trailing partial window too
        save_checkpoint(monitor, args.checkpoint)
        print(f"# checkpoint saved to {args.checkpoint}")
    print()
    for row in monitor.summary_rows():
        print(row)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import FaultPlan, FaultSpec, run_campaign
    from .telemetry.sampler import HPC_LEVEL

    if args.plan:
        plan = FaultPlan.load(args.plan)
    else:
        specs = []
        if args.dropout > 0:
            specs.append(
                FaultSpec(
                    kind="dropout",
                    probability=args.dropout,
                    level=HPC_LEVEL if args.level == "hybrid" else args.level,
                )
            )
        if args.corrupt > 0:
            specs.append(
                FaultSpec(
                    kind="corrupt",
                    probability=args.corrupt,
                    magnitude=args.magnitude,
                    level=HPC_LEVEL if args.level == "hybrid" else args.level,
                )
            )
        if args.stall:
            specs.append(
                FaultSpec(
                    kind="stall",
                    tier=args.stall,
                    start=args.stall_at,
                    end=args.stall_at + 1,
                )
            )
        if args.drop_records > 0:
            specs.append(
                FaultSpec(kind="drop_record", probability=args.drop_records)
            )
        if args.duplicate_records > 0:
            specs.append(
                FaultSpec(
                    kind="duplicate_record",
                    probability=args.duplicate_records,
                )
            )
        if not specs:
            raise SystemExit(
                "empty fault plan: give --plan or at least one of "
                "--dropout/--corrupt/--stall/--drop-records/"
                "--duplicate-records"
            )
        plan = FaultPlan(seed=args.fault_seed, faults=tuple(specs))

    pipeline = None
    if args.meter:
        meter = CapacityMeter.load(args.meter, labeler=SlaOracle())
        labeler = SlaOracle()
    else:
        print(
            f"# no --meter given: training a fresh {args.level} meter "
            f"at scale {args.scale}"
        )
        pipeline = ExperimentPipeline(
            PipelineConfig(scale=args.scale, window=_window_for(args.scale))
        )
        meter = pipeline.meter(args.level)
        labeler = pipeline.labeler
    if args.run:
        records = load_run(args.run).records
    else:
        if pipeline is None:
            pipeline = ExperimentPipeline(
                PipelineConfig(
                    scale=args.scale, window=_window_for(args.scale)
                )
            )
        records = pipeline.test_run(args.mix).records

    result = run_campaign(
        meter,
        records,
        plan,
        labeler=labeler,
        use_watchdog=not args.no_watchdog,
        stall_ticks=args.stall_ticks,
    )
    for row in result.rows():
        print(row)
    import hashlib

    digest = hashlib.sha256(result.signature.encode("utf-8")).hexdigest()
    print(f"# decision signature: {digest[:16]}")
    if args.min_ba is not None and result.fault_scores["overload_ba"] < args.min_ba:
        print(
            f"# FAIL: degraded overload BA "
            f"{result.fault_scores['overload_ba']:.3f} "
            f"below floor {args.min_ba:.3f}"
        )
        return 1
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    """``repro drift``: seeded drift → retrain → hot-swap campaign.

    Serves an *actual-scale* trace through a meter trained at
    ``--stale-scale`` (the gap starves the tables, so agreement and
    confidence sag), lets the drift detector trigger, retrains inline
    at the actual scale through the experiment pipeline + artifact
    cache, and hot-swaps the result at a window boundary.  Inline
    retraining makes every tick in the output a pure function of the
    seeds, so two runs byte-diff equal — the ``drift-retrain`` CI job
    replays the campaign twice and diffs.
    """
    import hashlib

    from .control.service import CapacityService, SiteSpec
    from .control.shard import ShardedCapacityService
    from .drift import DriftConfig, DriftRetrainController, RetrainSpec

    if args.sites < 1:
        raise SystemExit("--sites must be at least 1")
    if args.workers < 0:
        raise SystemExit("--workers must be 0 (single process) or more")
    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")

    cache = _make_cache(args, default_on=True)
    window = _window_for(args.scale)
    # the stale meter: trained at --stale-scale but with the serving
    # window, so the hot-swap's level/tiers/window contract holds
    stale = ExperimentPipeline(
        PipelineConfig(scale=args.stale_scale, window=window), cache=cache
    )
    print(
        f"# stale meter: {args.level} at scale {args.stale_scale} "
        f"(serving scale {args.scale}, window {window})"
    )
    meter = stale.meter(args.level)
    labeler = stale.labeler
    actual = ExperimentPipeline(
        PipelineConfig(scale=args.scale, window=window), cache=cache
    )
    records = list(actual.test_run(args.mix).records) * args.repeat
    specs = [
        SiteSpec(name=f"site{i}", seed=args.seed + i)
        for i in range(args.sites)
    ]
    spec = RetrainSpec(
        level=args.level,
        scale=args.scale,
        window=window,
        learner=meter.synopsis_config.learner,
        cache_dir=str(cache.root) if cache is not None else None,
    )
    config = DriftConfig(
        horizon=args.horizon,
        min_windows=args.min_windows,
        min_truth=max(2, args.min_windows // 2),
        agreement_floor=args.agreement_floor,
        cooldown=args.cooldown,
        seed=args.seed,
    )
    decisions: Dict[str, list] = {s.name: [] for s in specs}

    def on_decision(name, decision) -> None:
        decisions[name].append(decision)

    if args.workers > 0:
        service = ShardedCapacityService(
            meter,
            specs,
            workers=args.workers,
            labeler=labeler,
            on_decision=on_decision,
        )
    else:
        service = CapacityService(
            meter, specs, labeler=labeler, on_decision=on_decision
        )
    service.enable_snapshots()
    service.enable_drift(config)
    controller = DriftRetrainController(service, spec)
    printed = 0
    try:
        # step the controller at every window boundary — a pipe-idle
        # point for the sharded service, and the exact cadence the
        # single-process path triggers at, so the campaign output is
        # identical for any --workers
        for start in range(0, len(records), window):
            chunk = records[start : start + window]
            if args.workers > 0:
                service.replay(chunk)
            else:
                for record in chunk:
                    service.push(record)
            controller.step()
            while printed < len(controller.events):
                kind, tick, detail = controller.events[printed]
                print(f"# {kind} @{tick}: {detail}")
                printed += 1
    finally:
        if args.workers > 0:
            service.close()
        controller.close()
    lines = []
    dropped = False
    for name in sorted(decisions):
        seen = [d.index for d in decisions[name]]
        contiguous = seen == list(range(len(seen)))
        dropped = dropped or not contiguous
        lines.append(
            f"# windows {name}: {len(seen)} "
            f"contiguous={'yes' if contiguous else 'NO'}"
        )
        for decision in decisions[name]:
            lines.append(
                f"{name} {decision.index} "
                f"{int(decision.prediction.state)} "
                f"{int(decision.truth) if decision.truth is not None else '-'} "
                f"{decision.confidence:.4f}"
            )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    for line in lines:
        if line.startswith("# windows"):
            print(line)
    print(f"# meter version: {service.meter_version}")
    print(f"# decision signature: {digest[:16]}")
    status = 0
    if dropped:
        print("# FAIL: a site dropped a decision window across the swap")
        status = 1
    if args.expect_swap and not controller.swaps:
        print("# FAIL: campaign completed without a drift-triggered swap")
        status = 1
    return status


@contextlib.contextmanager
def _graceful_signals() -> Iterator[Callable[[], Optional[int]]]:
    """Convert SIGINT/SIGTERM into a flag the serve loops poll.

    The handler only *records* the signal, so the in-flight time slice
    completes and the pipes stay in protocol — the loop then breaks at
    the next slice boundary and writes a final checkpoint.  A second
    signal raises ``KeyboardInterrupt`` immediately (the operator
    insists).  Yields a callable returning the received signal number,
    or ``None``.
    """
    state: Dict[str, Optional[int]] = {"signum": None}

    def handler(signum: int, frame: object) -> None:
        if state["signum"] is not None:
            raise KeyboardInterrupt
        state["signum"] = signum

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, handler)
    try:
        yield lambda: state["signum"]
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _drift_controller(args: argparse.Namespace, service):
    """Background drift→retrain→hot-swap controller for the serve loops.

    Retrains at the *serving* scale (the whole point: the meter on duty
    was trained on yesterday's traffic) on a dedicated pool worker, so
    the tick loop and the HTTP decision path never block on a rebuild.
    """
    from .drift import DriftConfig, DriftRetrainController, RetrainSpec

    service.enable_drift(
        DriftConfig(
            agreement_floor=getattr(args, "agreement_floor", 0.7),
            seed=args.seed,
        )
    )
    cache = _make_cache(args, default_on=False)
    spec = RetrainSpec(
        level=args.level,
        scale=args.scale,
        window=service.window,
        cache_dir=str(cache.root) if cache is not None else None,
    )
    return DriftRetrainController(service, spec, background=True)


def _print_drift_events(controller, printed: int) -> int:
    """Print controller events past ``printed``; new high-water mark."""
    while printed < len(controller.events):
        kind, tick, detail = controller.events[printed]
        print(f"# {kind} @{tick}: {detail}", flush=True)
        printed += 1
    return printed


def _serve_sites(service, mix_name: str, profile: str, scale: float):
    """Simulate every site of ``service`` and attach the service to it.

    Per site: an app server, a database, a website, an RBE behind the
    site's gated front end and a driver of the ``profile`` schedule,
    seeded from the site's own spec.  Returns ``(simulator, schedule
    duration)``.  ``repro serve`` and ``serve-http`` call it in this
    process; with ``--workers`` each worker calls it on its shard's own
    :class:`~repro.control.service.CapacityService` via
    :meth:`~repro.control.shard.ShardedCapacityService.attach_factory`,
    so a site's telemetry stream does not depend on which shard hosts
    it.
    """
    from .simulator import (
        AppServer,
        DatabaseServer,
        MultiTierWebsite,
        Simulator,
    )
    from .workload.generator import ScheduleDriver
    from .workload.rbe import RemoteBrowserEmulator

    mix = _resolve_mix(mix_name)
    config = TestbedConfig()
    schedule = _schedule(profile, mix, config, scale)
    sim = Simulator()
    websites = {}
    for site in service.sites:
        spec = site.spec
        app = AppServer(sim, workers=config.app_workers)
        db = DatabaseServer(sim, connections=config.db_connections)
        website = MultiTierWebsite(sim, app, db)
        websites[spec.name] = website
        rbe = RemoteBrowserEmulator(
            sim,
            service.front_end(sim, spec.name, website),
            mix,
            think_time_mean=config.think_time_mean,
            continuity=config.continuity,
            seed=spec.seed,
        )
        ScheduleDriver(sim, rbe, schedule)
    service.attach(
        sim,
        websites,
        interval=config.sampling_interval,
        hpc_noise=config.hpc_noise,
        os_noise=config.os_noise,
    )
    return sim, schedule.duration


def _cmd_serve_sharded(args: argparse.Namespace, meter, labeler, specs) -> int:
    """The ``repro serve --workers N`` loop: sharded fleet, one stream.

    Each worker owns its shard's simulator and advances it in time
    slices; the parent merges the per-shard decision streams on
    ``(tick, shard order)`` and drives periodic checkpoints, which use
    the resharded ``"sharded"`` layout — saveable at N workers,
    resumable at any other count (or none).
    """
    from .control.shard import ShardedCapacityService
    from .faults.process import ProcessFaultPlan

    plan = None
    if args.process_faults:
        plan = ProcessFaultPlan.parse(args.process_faults)
    supervise = dict(
        recover=not args.no_recover,
        max_respawns=args.max_respawns,
        supervise_ticks=args.supervise_ticks,
        recv_timeout=args.recv_timeout,
        process_faults=plan,
    )
    if args.resume:
        service = ShardedCapacityService.resume(
            args.checkpoint,
            specs,
            workers=args.workers,
            labeler=labeler,
            allow_subset=args.allow_subset,
            retain_decisions=0,
            **supervise,
        )
        print(
            f"# resumed {len(specs)} sites across "
            f"{service.pool.size} workers from {args.checkpoint}: "
            f"{service.ticks} ticks already folded, no retraining"
        )
    else:
        service = ShardedCapacityService(
            meter,
            specs,
            workers=args.workers,
            labeler=labeler,
            retain_decisions=0,
            **supervise,
        )
    controller = None
    drift_printed = 0
    if args.retrain_on_drift:
        controller = _drift_controller(args, service)
    with service, _graceful_signals() as interrupted:
        duration = service.attach_factory(
            _serve_sites, args.mix, args.profile, args.scale
        )
        config = TestbedConfig()
        # one slice per checkpoint period (one window's worth of ticks
        # per site between checks when checkpointing, else 50 ticks)
        slice_seconds = config.sampling_interval * 50
        print(f"{'site':>6} {'window':>6} {'state':>9} {'truth':>6} {'p':>5}")
        now = 0.0
        windows_since = 0
        while now < duration and interrupted() is None:
            now = min(now + slice_seconds, duration)
            if controller is not None:
                # slice boundaries are the sharded fabric's pipe-idle
                # instants — the only safe place to stage a swap
                controller.step()
                drift_printed = _print_drift_events(
                    controller, drift_printed
                )
            for name, decision, gate_p in service.advance(now):
                prediction = decision.prediction
                print(
                    f"{name:>6} "
                    f"{decision.index:6d} "
                    f"{'OVERLOAD' if prediction.overloaded else 'ok':>9} "
                    f"{'OVERLOAD' if decision.truth else 'ok':>6} "
                    f"{gate_p:5.2f}"
                )
                windows_since += 1
            if (
                args.checkpoint
                and windows_since >= args.checkpoint_every * args.sites
            ):
                windows_since = 0
                service.save(args.checkpoint)
        if interrupted() is None:
            service.detach()
        else:
            print(
                f"# interrupted (signal {interrupted()}): shutting down "
                f"gracefully"
            )
        if controller is not None:
            controller.step()
            drift_printed = _print_drift_events(controller, drift_printed)
            controller.close()
            if controller.swaps:
                print(f"# meter version: {service.meter_version}")
        if args.checkpoint:
            # final snapshot captures the trailing partial windows too
            service.save(args.checkpoint)
            print(f"# checkpoint saved to {args.checkpoint}")
        stats = service.supervisor_stats()
        if plan is not None or sum(stats["respawns"]) or stats["lost"]:
            print(
                f"# supervisor: respawns={sum(stats['respawns'])} "
                f"lost={len(stats['lost'])} "
                f"faults_fired={stats['faults_fired']} "
                f"held_synthesized={stats['held_synthesized']}"
            )
            for worker in stats["lost"]:
                print(
                    f"# shard {worker} degraded "
                    f"({stats['lost_reasons'][worker]}): held decisions "
                    f"with decaying confidence"
                )
        print()
        for row in service.summary_rows():
            print(row)
    # close() folded the worker registries into the parent's (counters/
    # histograms summed, gauges last-write), so a --metrics-out dump
    # after this point is as complete as the single-process one
    return 0


def _check_process_faults(args: argparse.Namespace) -> None:
    if args.process_faults and args.workers == 0:
        raise SystemExit(
            "--process-faults needs --workers: process chaos targets "
            "the sharded fabric's worker processes"
        )


def cmd_serve(args: argparse.Namespace) -> int:
    from .control.service import CapacityService, SiteSpec
    from .core.monitor import MonitorDecision

    _resolve_mix(args.mix)  # reject a bad mix before training
    if args.sites < 1:
        raise SystemExit("--sites must be at least 1")
    if args.workers < 0:
        raise SystemExit("--workers must be 0 (single process) or more")
    if args.checkpoint_every < 1:
        raise SystemExit("--checkpoint-every must be at least 1 window")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    _check_process_faults(args)
    if args.max_respawns < 0:
        raise SystemExit("--max-respawns must be non-negative")
    if args.supervise_ticks < 0:
        raise SystemExit("--supervise-ticks must be non-negative")

    labeler = SlaOracle()
    if args.resume:
        meter = None  # every site's checkpoint embeds its trained meter
    elif args.meter:
        meter = CapacityMeter.load(args.meter, labeler=labeler)
    else:
        print(
            f"# no --meter given: training a fresh {args.level} meter "
            f"at scale {args.scale}"
        )
        pipeline = ExperimentPipeline(
            PipelineConfig(scale=args.scale, window=_window_for(args.scale))
        )
        meter = pipeline.meter(args.level)
        labeler = pipeline.labeler

    specs = [
        SiteSpec(
            name=f"site{i}",
            seed=args.seed + i,
            confidence_floor=args.confidence_floor,
        )
        for i in range(args.sites)
    ]

    if args.workers > 0:
        return _cmd_serve_sharded(args, meter, labeler, specs)

    print(f"{'site':>6} {'window':>6} {'state':>9} {'truth':>6} {'p':>5}")

    def show(name: str, decision: MonitorDecision) -> None:
        prediction = decision.prediction
        gate = service.site(name).gate
        print(
            f"{name:>6} "
            f"{decision.index:6d} "
            f"{'OVERLOAD' if prediction.overloaded else 'ok':>9} "
            f"{'OVERLOAD' if decision.truth else 'ok':>6} "
            f"{gate.admission_probability:5.2f}"
        )

    if args.resume:
        service = CapacityService.resume(
            args.checkpoint,
            specs,
            labeler=labeler,
            allow_subset=args.allow_subset,
            retain_decisions=0,
            on_decision=show,
        )
        print(
            f"# resumed {len(service.sites)} sites from "
            f"{args.checkpoint}: {service.ticks} ticks already folded, "
            f"no retraining"
        )
    else:
        service = CapacityService(
            meter,
            specs,
            labeler=labeler,
            retain_decisions=0,
            on_decision=show,
        )
    if args.checkpoint:
        windows_since = [0]
        inner = service.on_decision

        def checkpointing(name: str, decision: MonitorDecision) -> None:
            if inner is not None:
                inner(name, decision)
            windows_since[0] += 1
            if windows_since[0] >= args.checkpoint_every * args.sites:
                windows_since[0] = 0
                service.save(args.checkpoint)

        service.on_decision = checkpointing

    sim, duration = _serve_sites(service, args.mix, args.profile, args.scale)
    controller = None
    drift_printed = 0
    if args.retrain_on_drift:
        controller = _drift_controller(args, service)
    with _graceful_signals() as interrupted:
        # advance in slices so an operator SIGINT/SIGTERM lands between
        # slices and still gets a final checkpoint (event-driven sim:
        # sliced run == one run to the same instant)
        slice_seconds = TestbedConfig().sampling_interval * 50
        now = 0.0
        while now < duration and interrupted() is None:
            now = min(now + slice_seconds, duration)
            sim.run(until=now)
            if controller is not None:
                controller.step()
                drift_printed = _print_drift_events(
                    controller, drift_printed
                )
        service.stop()
        if controller is not None:
            controller.step()
            drift_printed = _print_drift_events(controller, drift_printed)
            controller.close()
            if controller.swaps:
                print(f"# meter version: {service.handle.version}")
        if interrupted() is not None:
            print(
                f"# interrupted (signal {interrupted()}): shutting down "
                f"gracefully"
            )
        if args.checkpoint:
            # final snapshot captures the trailing partial windows too
            service.save(args.checkpoint)
            print(f"# checkpoint saved to {args.checkpoint}")
    print()
    for row in service.summary_rows():
        print(row)
    return 0


def _serve_http_backend(args, meter, labeler, specs):
    """Build the ticking capacity service behind ``repro serve-http``.

    Returns ``(service, tick, cleanup)``: ``tick`` is a callable the
    background thread drives (returns False when the simulated
    schedule is exhausted), ``cleanup`` tears the backend down.  Both
    single-process and sharded services publish snapshots; the server
    thread only ever reads ``service.snapshot``.
    """
    from .control.service import CapacityService
    from .control.shard import ShardedCapacityService
    from .faults.process import ProcessFaultPlan

    config = TestbedConfig()
    slice_seconds = config.sampling_interval * 50
    if args.workers > 0:
        plan = None
        if args.process_faults:
            plan = ProcessFaultPlan.parse(args.process_faults)
        service = ShardedCapacityService(
            meter,
            specs,
            workers=args.workers,
            labeler=labeler,
            retain_decisions=0,
            recover=not args.no_recover,
            max_respawns=args.max_respawns,
            recv_timeout=args.recv_timeout,
            process_faults=plan,
        )
        service.enable_snapshots()
        controller = None
        if getattr(args, "retrain_on_drift", False):
            controller = _drift_controller(args, service)
        duration = service.attach_factory(
            _serve_sites, args.mix, args.profile, args.scale
        )
        state = {"now": 0.0, "printed": 0}

        def tick() -> bool:
            if state["now"] >= duration:
                return False
            if controller is not None:
                # slice boundaries are the fabric's pipe-idle instants
                controller.step()
                state["printed"] = _print_drift_events(
                    controller, state["printed"]
                )
            state["now"] = min(state["now"] + slice_seconds, duration)
            service.advance(state["now"])
            return True

        def cleanup() -> None:
            try:
                if controller is not None:
                    controller.step()
                    state["printed"] = _print_drift_events(
                        controller, state["printed"]
                    )
                    controller.close()
                service.detach()
            finally:
                service.close()

        return service, tick, cleanup

    service = CapacityService(meter, specs, labeler=labeler, retain_decisions=0)
    service.enable_snapshots()
    sim, duration = _serve_sites(service, args.mix, args.profile, args.scale)
    controller = None
    if getattr(args, "retrain_on_drift", False):
        controller = _drift_controller(args, service)
    state = {"now": 0.0, "printed": 0}

    def tick() -> bool:
        if state["now"] >= duration:
            return False
        state["now"] = min(state["now"] + slice_seconds, duration)
        sim.run(until=state["now"])
        if controller is not None:
            controller.step()
            state["printed"] = _print_drift_events(
                controller, state["printed"]
            )
        return True

    def cleanup() -> None:
        if controller is not None:
            controller.close()
        service.stop()

    return service, tick, cleanup


def cmd_serve_http(args: argparse.Namespace) -> int:
    """``repro serve-http``: the capacity meter behind HTTP.

    The event loop (main thread) answers ``/admit``/``/decide``/
    ``/healthz``/``/metrics`` from the service's published snapshots;
    the service itself ticks on a daemon thread (or in sharded worker
    processes), so admit latency never waits on window compute.  After
    the simulated schedule is exhausted the server keeps answering
    from the final snapshot until SIGTERM or ``--duration`` elapses.
    """
    import asyncio
    import threading
    import time as _time

    from .control.service import SiteSpec
    from .frontend.gateway import AdmitGateway
    from .frontend.server import HttpCapacityServer

    if args.sites < 1:
        raise SystemExit("--sites must be at least 1")
    if args.workers < 0:
        raise SystemExit("--workers must be 0 (single process) or more")
    _check_process_faults(args)

    labeler = SlaOracle()
    if args.meter:
        meter = CapacityMeter.load(args.meter, labeler=labeler)
    else:
        print(
            f"# no --meter given: training a fresh {args.level} meter "
            f"at scale {args.scale}",
            flush=True,
        )
        pipeline = ExperimentPipeline(
            PipelineConfig(scale=args.scale, window=_window_for(args.scale))
        )
        meter = pipeline.meter(args.level)
        labeler = pipeline.labeler
    specs = [
        SiteSpec(
            name=f"site{i}",
            seed=args.seed + i,
            confidence_floor=args.confidence_floor,
        )
        for i in range(args.sites)
    ]
    if not OBS.enabled:
        # /metrics must expose something even without --metrics-out
        OBS.enable()
    # shorter GIL switch interval: the tick thread's numpy-free spans
    # yield sooner, trimming the admit path's scheduling tail
    sys.setswitchinterval(args.switch_interval)

    service, tick, cleanup = _serve_http_backend(args, meter, labeler, specs)
    gateway = AdmitGateway(
        specs,
        lambda: service.snapshot,
        order_protect=args.order_protect,
    )
    server = HttpCapacityServer(
        gateway,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        concurrency=args.concurrency,
        deadline=args.deadline,
        drain_grace=args.drain_grace,
    )
    stop = threading.Event()

    def tick_loop() -> None:
        try:
            while not stop.is_set():
                if not tick():
                    break
        except Exception as exc:  # noqa: BLE001 - surfaced on stdout
            print(f"# tick loop failed: {exc!r}", flush=True)

    thread = threading.Thread(
        target=tick_loop, name="capacity-ticks", daemon=True
    )

    async def amain(interrupted: Callable[[], Optional[int]]) -> None:
        await server.start()
        print(
            f"# serving {len(specs)} sites on "
            f"http://{server.host}:{server.port} "
            f"(workers={args.workers}, deadline={args.deadline}s)",
            flush=True,
        )
        thread.start()
        started = _time.monotonic()
        while interrupted() is None:
            if (
                args.duration is not None
                and _time.monotonic() - started >= args.duration
            ):
                break
            await asyncio.sleep(0.05)
        signum = interrupted()
        if signum is not None:
            print(
                f"# interrupted (signal {signum}): draining in-flight "
                f"requests",
                flush=True,
            )
        await server.drain()

    status = 0
    with _graceful_signals() as interrupted:
        try:
            asyncio.run(amain(interrupted))
        except KeyboardInterrupt:
            print("# second signal: shutting down immediately", flush=True)
            status = 1
        finally:
            stop.set()
            thread.join(timeout=30.0)
            try:
                cleanup()
            except Exception as exc:  # noqa: BLE001 - already stopping
                print(f"# backend cleanup failed: {exc!r}", flush=True)
    print(f"# http: {server.stats.summary()}")
    print()
    for row in service.summary_rows():
        print(row)
    return status


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: seeded open-loop driver for ``serve-http``."""
    import json as _json
    from urllib.parse import urlparse

    from .frontend.loadgen import run_load

    parsed = urlparse(args.url)
    if parsed.scheme != "http" or parsed.hostname is None:
        raise SystemExit(f"--url must be http://host:port, got {args.url!r}")
    sites = [f"site{i}" for i in range(args.sites)]
    report = run_load(
        host=parsed.hostname,
        port=parsed.port or 80,
        rps=args.rps,
        duration=args.duration,
        mix_name=args.mix,
        sites=sites,
        seed=args.seed,
        arrivals=args.arrivals,
        timeout=args.timeout,
        connections=args.connections,
    )
    out = args.out
    if out:
        from pathlib import Path

        path = Path(out)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(report, indent=2) + "\n")
        print(f"# report written to {path}")
    latency = report["admit_latency_ms"]
    print(
        f"# loadgen: {report['requests']} requests in "
        f"{report['wall_s']:.2f}s (target {args.rps:g} rps, achieved "
        f"{report['achieved_rps']:.1f})"
    )
    print(
        f"# admitted={report['admitted']} rejected={report['rejected']} "
        f"errors={report['errors']} timeouts={report['timeouts']} "
        f"5xx={report['status_5xx']}"
    )
    print(
        f"# admit latency ms: p50={latency['p50']:.3f} "
        f"p99={latency['p99']:.3f} p999={latency['p999']:.3f} "
        f"max={latency['max']:.3f}"
    )
    print(f"# schedule sha256: {report['schedule_sha256'][:16]}")
    failures = (
        report["errors"] + report["timeouts"] + report["status_5xx"]
    )
    if args.check and failures:
        print(f"# FAIL: {failures} failed requests with --check")
        return 1
    return 0


_ARTIFACTS = (
    "fig3",
    "table1a",
    "table1b",
    "fig4",
    "timing",
    "overhead",
    "history",
    "scheme",
    "delta",
    "fallback",
    "hybrid",
)


#: which artifacts each report needs warmed (kwargs for ``warm``);
#: None means the experiment drives its own simulations, so there is
#: nothing to fan out
_WARM_SPECS = {
    "fig3": dict(
        test_workloads=(), include_stress=True, levels=(), learners=()
    ),
    "table1a": dict(test_workloads=("browsing",)),
    "table1b": dict(test_workloads=("ordering",)),
    "fig4": dict(learners=("tan",)),
    "timing": dict(test_workloads=(), levels=(), learners=()),
    "overhead": None,
    "history": dict(levels=("hpc",), learners=("tan",)),
    "scheme": dict(levels=("hpc",), learners=("tan",)),
    "delta": dict(levels=("hpc",), learners=("tan",)),
    "fallback": dict(levels=("hpc",), learners=("tan",)),
    "hybrid": dict(levels=("os", "hpc", "hybrid"), learners=("tan",)),
}


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import (
        run_delta_ablation,
        run_fallback_ablation,
        run_fig3,
        run_fig4,
        run_history_ablation,
        run_hybrid_comparison,
        run_overhead,
        run_scheme_ablation,
        run_table1,
        run_timing,
    )
    from .parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    pipeline = ExperimentPipeline(
        PipelineConfig(scale=args.scale, window=_window_for(args.scale)),
        cache=_make_cache(args, default_on=False),
    )
    spec = _WARM_SPECS[args.artifact]
    if jobs > 1 and spec is not None:
        pipeline.warm(jobs=jobs, **spec)
    producers = {
        "fig3": lambda: run_fig3(pipeline).rows(every=60),
        "table1a": lambda: run_table1(pipeline, "browsing").rows(),
        "table1b": lambda: run_table1(pipeline, "ordering").rows(),
        "fig4": lambda: run_fig4(pipeline).rows(),
        "timing": lambda: run_timing(pipeline).rows(),
        "overhead": lambda: run_overhead(pipeline, executions=3).rows(),
        "history": lambda: run_history_ablation(pipeline).rows(),
        "scheme": lambda: run_scheme_ablation(pipeline).rows(),
        "delta": lambda: run_delta_ablation(pipeline).rows(),
        "fallback": lambda: run_fallback_ablation(pipeline).rows(),
        "hybrid": lambda: run_hybrid_comparison(pipeline).rows(),
    }
    for row in producers[args.artifact]():
        print(row)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments.table1 import run_table1
    from .parallel import resolve_jobs

    learners = tuple(
        name for name in (args.learners or "").split(",") if name
    )
    inputs = (
        ("browsing", "ordering") if args.input == "both" else (args.input,)
    )
    jobs = resolve_jobs(args.jobs)
    pipeline = ExperimentPipeline(
        PipelineConfig(scale=args.scale, window=_window_for(args.scale)),
        cache=_make_cache(args, default_on=True),
    )
    warm_kwargs = {"test_workloads": inputs}
    if learners:
        warm_kwargs["learners"] = learners
    report = pipeline.warm(jobs=jobs, **warm_kwargs)
    for workload in inputs:
        for row in run_table1(pipeline, workload, learners=learners).rows():
            print(row)
        print()
    _print_build_summary(pipeline, report, jobs)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "dump":
        from .obs import exposition, registry_from_jsonl

        if not args.source:
            raise SystemExit("obs dump requires --from FILE.jsonl")
        registry = registry_from_jsonl(args.source)
        text = exposition(registry)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text, encoding="utf-8")
            print(f"# wrote {len(registry)} metric series to {args.out}")
        else:
            print(text, end="")
        return 0

    # overhead: self-measure the instrumentation layer's decision-path
    # cost, mirroring the paper's own collection-agent experiment
    from .obs.overhead import measure_decision_overhead

    pipeline = ExperimentPipeline(
        PipelineConfig(scale=args.scale, window=_window_for(args.scale))
    )
    print(
        f"# training a fresh {args.level} meter at scale {args.scale} "
        f"and replaying the {args.mix} test run"
    )
    meter = pipeline.meter(args.level)
    records = pipeline.test_run(args.mix).records
    result = measure_decision_overhead(
        meter, records, repeats=args.repeats, passes=args.passes
    )
    for row in result.rows():
        print(row)
    if not result.identical_decisions:
        print("# FAIL: instrumentation changed the decision sequence")
        return 1
    if (
        args.max_overhead is not None
        and result.overhead_percent > args.max_overhead
    ):
        print(
            f"# FAIL: overhead {result.overhead_percent:+.2f}% above "
            f"ceiling {args.max_overhead:.2f}%"
        )
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .parallel import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.action == "stats":
        for row in cache.stats_rows():
            print(row)
    else:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    return 0


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="record internal metrics for this invocation and write "
        "them here (.jsonl: event log, otherwise Prometheus text)",
    )


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run a workload and save the measurement run"
    )
    simulate.add_argument(
        "--mix",
        default="ordering",
        help="browsing | shopping | ordering | unknown",
    )
    simulate.add_argument(
        "--profile",
        choices=("training", "test", "stress"),
        default="test",
        help="schedule shape (ramp+spike, staircase, or near-saturation)",
    )
    simulate.add_argument("--scale", type=float, default=0.3)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--collector", choices=sorted(_COLLECTORS), default="none"
    )
    simulate.add_argument("--out", required=True, help="output .json[.gz]")
    simulate.set_defaults(func=cmd_simulate)

    train = sub.add_parser("train", help="train and save a capacity meter")
    train.add_argument(
        "--run",
        action="append",
        metavar="WORKLOAD=PATH",
        help="saved training run (repeatable); omit to simulate fresh ones",
    )
    train.add_argument("--scale", type=float, default=0.3)
    train.add_argument("--level", choices=("hpc", "os", "hybrid"), default="hpc")
    train.add_argument("--learner", default="tan")
    train.add_argument("--window", type=int, default=None)
    train.add_argument("--sla", type=float, default=0.5)
    train.add_argument("--history-bits", type=int, default=3)
    train.add_argument("--delta", type=float, default=5.0)
    train.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for cross-validation folds "
        "(default: all CPUs; bit-identical to --jobs 1)",
    )
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser(
        "predict", help="replay a saved run through a saved meter"
    )
    predict.add_argument("--meter", required=True)
    predict.add_argument("--run", required=True)
    predict.set_defaults(func=cmd_predict)

    evaluate = sub.add_parser(
        "evaluate", help="score a saved meter on a saved run"
    )
    evaluate.add_argument("--meter", required=True)
    evaluate.add_argument("--run", required=True)
    evaluate.set_defaults(func=cmd_evaluate)

    monitor = sub.add_parser(
        "monitor",
        help="stream a live simulation through an online capacity monitor",
    )
    monitor.add_argument(
        "--mix",
        default="ordering",
        help="browsing | shopping | ordering | unknown",
    )
    monitor.add_argument(
        "--profile",
        choices=("training", "test", "stress"),
        default="test",
        help="schedule shape (ramp+spike, staircase, or near-saturation)",
    )
    monitor.add_argument("--scale", type=float, default=0.3)
    monitor.add_argument("--seed", type=int, default=1)
    monitor.add_argument(
        "--meter", default=None, help="saved meter; omit to train fresh"
    )
    monitor.add_argument(
        "--level", choices=("hpc", "os", "hybrid"), default="hpc",
        help="metric level when training a fresh meter",
    )
    monitor.add_argument(
        "--adapt",
        action="store_true",
        help="keep updating the coordinated tables from live ground truth",
    )
    monitor.add_argument(
        "--retain",
        type=int,
        default=None,
        help="bound the kept decision tail (default: keep all)",
    )
    monitor.add_argument(
        "--checkpoint",
        default=None,
        help="periodically snapshot monitor + meter state to this file",
    )
    monitor.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="windows between checkpoints (default 10)",
    )
    monitor.add_argument(
        "--resume",
        action="store_true",
        help="restore monitor + trained meter from --checkpoint "
        "(no retraining) before streaming",
    )
    _add_metrics_out(monitor)
    monitor.set_defaults(func=cmd_monitor)

    faults = sub.add_parser(
        "faults",
        help="run a deterministic fault-injection campaign and report "
        "decision-accuracy degradation vs the clean replay",
    )
    faults.add_argument(
        "--mix",
        choices=("ordering", "browsing", "interleaved", "unknown"),
        default="ordering",
        help="test workload to replay (ignored with --run)",
    )
    faults.add_argument("--scale", type=float, default=0.3)
    faults.add_argument(
        "--level", choices=("hpc", "os", "hybrid"), default="hpc",
        help="metric level when training a fresh meter",
    )
    faults.add_argument(
        "--meter", default=None, help="saved meter; omit to train fresh"
    )
    faults.add_argument(
        "--run", default=None, help="saved run to replay; omit to simulate"
    )
    faults.add_argument(
        "--plan", default=None, help="JSON fault plan (overrides the flags)"
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the synthesized plan's RNG streams",
    )
    faults.add_argument(
        "--dropout", type=float, default=0.0,
        help="per-tick per-attribute counter dropout probability",
    )
    faults.add_argument(
        "--corrupt", type=float, default=0.0,
        help="per-tick per-attribute value-spike probability",
    )
    faults.add_argument(
        "--magnitude", type=float, default=10.0,
        help="multiplicative spike of corrupted values",
    )
    faults.add_argument(
        "--stall", default=None, metavar="TIER",
        help="stall this tier's collector (watchdog must re-arm it)",
    )
    faults.add_argument(
        "--stall-at", type=int, default=30,
        help="tick at which the --stall fault fires",
    )
    faults.add_argument(
        "--drop-records", type=float, default=0.0,
        help="per-tick whole-record loss probability",
    )
    faults.add_argument(
        "--duplicate-records", type=float, default=0.0,
        help="per-tick record duplication probability",
    )
    faults.add_argument(
        "--no-watchdog", action="store_true",
        help="disable the stalled-collector watchdog",
    )
    faults.add_argument(
        "--stall-ticks", type=int, default=3,
        help="silent ticks before the watchdog flags a tier",
    )
    faults.add_argument(
        "--min-ba", type=float, default=None,
        help="exit non-zero when the degraded overload BA drops below "
        "this floor (CI gate)",
    )
    _add_metrics_out(faults)
    faults.set_defaults(func=cmd_faults)

    drift = sub.add_parser(
        "drift",
        help="seeded drift → inline retrain → atomic hot-swap campaign "
        "(byte-diffable across runs and worker counts)",
    )
    drift.add_argument(
        "--sites", type=int, default=2,
        help="independently monitored sites (default 2)",
    )
    drift.add_argument("--scale", type=float, default=0.3)
    drift.add_argument(
        "--stale-scale", type=float, default=0.1,
        help="the serving meter is trained at this scale; the gap to "
        "--scale is what the detector catches (default 0.1)",
    )
    drift.add_argument(
        "--mix", default="ordering",
        help="browsing | shopping | ordering | unknown",
    )
    drift.add_argument(
        "--level", choices=("hpc", "os", "hybrid"), default="hpc",
    )
    drift.add_argument(
        "--seed", type=int, default=1,
        help="base seed for sites and drift thresholds",
    )
    drift.add_argument(
        "--workers", type=int, default=0,
        help="shard the fleet (0 = single process); the campaign "
        "output is identical for any worker count",
    )
    drift.add_argument(
        "--repeat", type=int, default=2,
        help="tile the test trace this many times so the horizon "
        "fills (default 2)",
    )
    drift.add_argument(
        "--horizon", type=int, default=12,
        help="sliding drift horizon in windows (default 12)",
    )
    drift.add_argument(
        "--min-windows", type=int, default=8,
        help="windows before a verdict can trigger (default 8)",
    )
    drift.add_argument(
        "--agreement-floor", type=float, default=0.7,
        help="label-vs-prediction agreement below this triggers "
        "(default 0.7: the stale-scale meter bottoms out near 2/3 "
        "agreement on the serving trace, safely below the floor)",
    )
    drift.add_argument(
        "--cooldown", type=int, default=24,
        help="windows after a swap before the next trigger (default 24)",
    )
    drift.add_argument(
        "--expect-swap", action="store_true",
        help="exit 1 unless the campaign triggered at least one "
        "retrain + hot-swap (the CI gate)",
    )
    drift.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory (default: REPRO_CACHE_DIR or "
        "~/.cache/repro); a warm cache makes the retrain build-free",
    )
    drift.add_argument(
        "--no-cache", action="store_true",
        help="bypass the artifact cache entirely",
    )
    _add_metrics_out(drift)
    drift.set_defaults(func=cmd_drift)

    serve = sub.add_parser(
        "serve",
        help="run N capacity-monitored websites behind AIMD admission "
        "gates (one simulator, batched synopsis inference)",
    )
    serve.add_argument(
        "--sites", type=int, default=2,
        help="number of independently monitored websites (default 2)",
    )
    serve.add_argument(
        "--mix",
        default="ordering",
        help="browsing | shopping | ordering | unknown",
    )
    serve.add_argument(
        "--profile",
        choices=("training", "test", "stress"),
        default="stress",
        help="schedule shape driven at every site (default: stress, so "
        "the gates have an overload to regulate)",
    )
    serve.add_argument("--scale", type=float, default=0.3)
    serve.add_argument(
        "--seed", type=int, default=1,
        help="base seed; site i uses seed+i for traffic and sampling",
    )
    serve.add_argument(
        "--meter", default=None, help="saved meter; omit to train fresh"
    )
    serve.add_argument(
        "--level", choices=("hpc", "os", "hybrid"), default="hpc",
        help="metric level when training a fresh meter",
    )
    serve.add_argument(
        "--confidence-floor", type=float, default=0.75,
        help="decisions below this telemetry confidence hold the "
        "admission probability steady (default 0.75)",
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="periodically snapshot every site's monitor + gate state "
        "into this directory",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="windows per site between checkpoints (default 10)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore all sites from --checkpoint (no retraining) "
        "before streaming",
    )
    serve.add_argument(
        "--allow-subset",
        action="store_true",
        help="with --resume, permit dropping checkpointed sites from "
        "the fleet instead of erroring on orphaned state",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard the fleet across this many worker processes "
        "(0 = single process; merged decisions are bit-identical "
        "for any worker count)",
    )
    serve.add_argument(
        "--process-faults",
        default=None,
        metavar="PLAN",
        help="seeded process chaos for the sharded fabric: comma-"
        "separated kind@tick:wINDEX[:delay] tokens, kinds kill|hang|"
        "slow (e.g. 'kill@120:w1,slow@50:w2:0.25'); hang needs "
        "--recv-timeout",
    )
    serve.add_argument(
        "--recv-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervision deadline for worker replies; a worker "
        "silent past it is treated as hung and recovered "
        "(default: none — crashes are still detected eagerly)",
    )
    serve.add_argument(
        "--supervise-ticks",
        type=int,
        default=256,
        metavar="N",
        help="ticks between incremental recovery checkpoints in "
        "replay-style serving (0 disables them; default 256)",
    )
    serve.add_argument(
        "--no-recover",
        action="store_true",
        help="disable crash recovery: a dead shard's sites degrade to "
        "held decisions with decaying confidence instead",
    )
    serve.add_argument(
        "--max-respawns",
        type=int,
        default=3,
        metavar="N",
        help="respawn budget per worker before its shard is abandoned "
        "to degraded serving (default 3)",
    )
    serve.add_argument(
        "--retrain-on-drift",
        action="store_true",
        help="watch the decision stream with the online drift detector "
        "and, on a trigger, retrain at the serving scale on a "
        "background worker and hot-swap the meter at a window boundary",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact cache for --retrain-on-drift rebuilds (a warm "
        "cache makes retraining near-instant)",
    )
    serve.add_argument(
        "--agreement-floor",
        type=float,
        default=0.7,
        help="label-vs-prediction agreement below which the drift "
        "detector triggers a retrain (default 0.7)",
    )
    _add_metrics_out(serve)
    serve.set_defaults(func=cmd_serve)

    serve_http = sub.add_parser(
        "serve-http",
        help="expose the capacity service's admission path over HTTP "
        "(POST /admit, POST /decide, GET /healthz, GET /metrics)",
    )
    serve_http.add_argument(
        "--sites", type=int, default=2,
        help="number of independently monitored websites (default 2)",
    )
    serve_http.add_argument(
        "--mix",
        default="ordering",
        help="browsing | shopping | ordering | unknown",
    )
    serve_http.add_argument(
        "--profile",
        choices=("training", "test", "stress"),
        default="stress",
        help="schedule shape driven at every site (default: stress)",
    )
    serve_http.add_argument("--scale", type=float, default=0.3)
    serve_http.add_argument(
        "--seed", type=int, default=1,
        help="base seed; site i uses seed+i for traffic and sampling",
    )
    serve_http.add_argument(
        "--meter", default=None, help="saved meter; omit to train fresh"
    )
    serve_http.add_argument(
        "--level", choices=("hpc", "os", "hybrid"), default="hpc",
        help="metric level when training a fresh meter",
    )
    serve_http.add_argument(
        "--confidence-floor", type=float, default=0.75,
        help="decisions below this telemetry confidence hold the "
        "admission probability steady (default 0.75)",
    )
    serve_http.add_argument(
        "--workers", type=int, default=0,
        help="shard the ticking service across worker processes "
        "(0 = tick on a thread in this process)",
    )
    serve_http.add_argument(
        "--no-recover", action="store_true",
        help="disable crash recovery: a dead shard's sites degrade to "
        "held decisions and /healthz reports degraded",
    )
    serve_http.add_argument(
        "--max-respawns", type=int, default=3, metavar="N",
        help="respawn budget per worker before its shard is abandoned",
    )
    serve_http.add_argument(
        "--recv-timeout", type=float, default=None, metavar="SECONDS",
        help="supervision deadline for worker replies",
    )
    serve_http.add_argument(
        "--process-faults", default=None, metavar="PLAN",
        help="seeded process chaos for the sharded backend (see serve)",
    )
    serve_http.add_argument(
        "--host", default="127.0.0.1", help="bind address (default lo)"
    )
    serve_http.add_argument(
        "--port", type=int, default=8127,
        help="bind port; 0 picks a free one (default 8127)",
    )
    serve_http.add_argument(
        "--queue-limit", type=int, default=256,
        help="admit requests allowed to wait for a slot before the "
        "server sheds with 503 queue_full (default 256)",
    )
    serve_http.add_argument(
        "--concurrency", type=int, default=32,
        help="admit requests served concurrently (default 32)",
    )
    serve_http.add_argument(
        "--deadline", type=float, default=0.5,
        help="per-request deadline in seconds; overruns answer 504 "
        "and count in repro.obs (default 0.5)",
    )
    serve_http.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds to let in-flight requests finish on SIGTERM",
    )
    serve_http.add_argument(
        "--duration", type=float, default=None,
        help="exit after this many wall seconds (default: run until "
        "SIGINT/SIGTERM)",
    )
    serve_http.add_argument(
        "--order-protect", type=float, default=0.0,
        help="admission-probability boost for Order-class requests "
        "(0 = class-blind, bit-identical to GatedFrontEnd)",
    )
    serve_http.add_argument(
        "--switch-interval", type=float, default=0.002,
        help="sys.setswitchinterval for the tick thread's GIL slices "
        "(default 0.002s; python default 0.005 adds admit tail)",
    )
    serve_http.add_argument(
        "--retrain-on-drift",
        action="store_true",
        help="drift-triggered background retrain + atomic meter "
        "hot-swap while the HTTP decision path keeps serving",
    )
    serve_http.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact cache for --retrain-on-drift rebuilds",
    )
    serve_http.add_argument(
        "--agreement-floor",
        type=float,
        default=0.7,
        help="label-vs-prediction agreement below which the drift "
        "detector triggers a retrain (default 0.7)",
    )
    _add_metrics_out(serve_http)
    serve_http.set_defaults(func=cmd_serve_http)

    loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop HTTP load driver for serve-http "
        "(Poisson/constant arrivals, TPC-W mix, tail-latency report)",
    )
    loadgen.add_argument(
        "--url", default="http://127.0.0.1:8127",
        help="serve-http endpoint (default http://127.0.0.1:8127)",
    )
    loadgen.add_argument(
        "--rps", type=float, default=100.0,
        help="target offered request rate (default 100)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=10.0,
        help="seconds of scheduled arrivals (default 10)",
    )
    loadgen.add_argument(
        "--mix", default="tpcw",
        help="tpcw | browsing | shopping | ordering (tpcw = the "
        "benchmark's canonical shopping mix)",
    )
    loadgen.add_argument(
        "--sites", type=int, default=2,
        help="spray requests across site0..site{N-1} (default 2; must "
        "match the server's --sites)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=0,
        help="schedule seed; same seed, byte-identical schedule",
    )
    loadgen.add_argument(
        "--arrivals", choices=("poisson", "constant"), default="poisson",
        help="open-loop arrival process (default poisson)",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-request client timeout in seconds (default 2)",
    )
    loadgen.add_argument(
        "--connections", type=int, default=16,
        help="keep-alive client connections (default 16)",
    )
    loadgen.add_argument(
        "--out", default="BENCH_http.json",
        help="JSON report path (default BENCH_http.json; empty string "
        "skips the file)",
    )
    loadgen.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any request errored, timed out or got "
        "a 5xx (CI gate)",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    report = sub.add_parser(
        "report", help="regenerate one of the paper's tables/figures"
    )
    report.add_argument("--artifact", choices=_ARTIFACTS, required=True)
    report.add_argument("--scale", type=float, default=0.3)
    report.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent artifacts "
        "(default: all CPUs; bit-identical to --jobs 1)",
    )
    report.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact cache directory (default: no cache)",
    )
    report.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )
    _add_metrics_out(report)
    report.set_defaults(func=cmd_report)

    table1 = sub.add_parser(
        "table1",
        help="both Table I sub-tables via the parallel engine + cache",
    )
    table1.add_argument(
        "--input",
        choices=("both", "browsing", "ordering"),
        default="both",
        help="which testing mix(es) to tabulate",
    )
    table1.add_argument("--scale", type=float, default=0.3)
    table1.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for runs/synopses "
        "(default: all CPUs; bit-identical to --jobs 1)",
    )
    table1.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    table1.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )
    table1.add_argument(
        "--learners",
        default="",
        help="comma-separated learner subset (default: all registered)",
    )
    _add_metrics_out(table1)
    table1.set_defaults(func=cmd_table1)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.set_defaults(func=cmd_cache)

    obs = sub.add_parser(
        "obs",
        help="inspect recorded metrics or self-measure instrumentation "
        "overhead",
    )
    obs.add_argument(
        "action",
        choices=("dump", "overhead"),
        help="dump: render a --metrics-out .jsonl event log as "
        "Prometheus text; overhead: measure the instrumentation "
        "layer's decision-path cost",
    )
    obs.add_argument(
        "--from",
        dest="source",
        default=None,
        metavar="FILE.jsonl",
        help="event log to render (dump)",
    )
    obs.add_argument(
        "--out", default=None, help="write exposition here instead of stdout"
    )
    obs.add_argument("--scale", type=float, default=0.2)
    obs.add_argument(
        "--mix",
        choices=("ordering", "browsing", "interleaved", "unknown"),
        default="ordering",
        help="test workload replayed by the overhead measurement",
    )
    obs.add_argument(
        "--level", choices=("hpc", "os", "hybrid"), default="hpc",
        help="metric level of the freshly trained meter (overhead)",
    )
    obs.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions; best-of-N is reported (overhead)",
    )
    obs.add_argument(
        "--passes", type=int, default=3,
        help="back-to-back record-stream passes per timed replay; more "
        "passes shrink timer noise (overhead)",
    )
    obs.add_argument(
        "--max-overhead", type=float, default=None,
        help="exit non-zero when overhead exceeds this percentage "
        "(CI gate)",
    )
    obs.set_defaults(func=cmd_obs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        if str(metrics_out).endswith(".jsonl"):
            # stream span events live; the final snapshot appends to them
            OBS.enable(events=metrics_out)
        else:
            OBS.enable()
    try:
        status = args.func(args)
    finally:
        if metrics_out:
            OBS.dump(metrics_out)
            OBS.reset()
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
