"""Multi-process sharded backend for :class:`CapacityService`.

One process — even with the structure-of-arrays
:class:`~repro.control.fleet.FleetState` — caps the fleet at a single
core.  :class:`ShardedCapacityService` partitions the site list into
contiguous shards, runs each shard as a full single-process
:class:`~repro.control.service.CapacityService` (fleet backend and all)
inside a long-lived worker process on a
:class:`~repro.parallel.pool.WorkerPool`, and merges the per-tick
decision streams back into the parent.

Determinism / bit-equality
--------------------------
The merged stream is bit-identical to the single-process service for
*any* worker count, because nothing a site computes depends on which
shard it landed in:

* every site's RNG substreams derive from ``SeedSequence(site_seed)``
  only (:meth:`~repro.control.service.SiteSpec.seed_streams`) — never
  from a worker or shard index;
* batched synopsis votes are pure functions of each window (identical
  whether the batch spans 1000 sites or a 250-site shard);
* the single-process flush emits decisions in (site order, window
  order) within each tick, so with *contiguous* shards the canonical
  order is recovered by concatenating the shards' per-tick streams in
  shard order — a merge that never looks at wall-clock completion.

Startup and steady-state costs are kept off the decision path: the one
trained meter crosses into each worker exactly once, as a read-only
``meter.to_payload()`` broadcast folded into the pool's warm-up
handshake; per-tick traffic ships in multi-tick chunks, and the parent
pulls chunk ``k``'s reply blobs off every pipe *before* unpickling
them, handing out chunk ``k + 1`` first so its merge work overlaps the
workers' compute.

Checkpointing extends the ``repro.service-checkpoint/2`` manifest with
a ``"sharded"`` layout — one fleet-sharded ``fleet.monitor.<i>.json``
per worker plus the merged gate/injector/watchdog states — that can be
saved at N workers and resumed at M (including M = 0: the
single-process :meth:`CapacityService.resume` reads the sharded layout
directly), and a sharded service resumes any v1/v2 single-process
manifest, since each worker simply resumes its slice of the checkpoint
through ``CapacityService.resume(..., allow_subset=True)``.

Self-healing
------------
The fabric assumes worker processes die.  A supervisor rides the
replay/live loops:

* **periodic recovery checkpoints** — every ``supervise_ticks`` ticks
  (at the pipe-idle point between collecting chunk *k* and merging it)
  the service writes an incremental ``"sharded"`` checkpoint, and a
  bounded in-parent replay buffer retains every record since;
* **crash recovery** — a worker that crashes
  (:class:`~repro.parallel.pool.WorkerCrash`) or hangs past
  ``recv_timeout`` (:class:`~repro.parallel.pool.WorkerTimeout`) is
  respawned, its shard resumed from the last recovery checkpoint (or
  the original resume dir, or rebuilt cold from the meter payload),
  the intervening ticks replayed from the buffer, and the in-flight
  chunk re-dispatched — so the recovered shard's decision stream is
  **bit-identical** to an uninterrupted run (the checkpoint/resume ==
  uninterrupted invariant the single-process tests pin).  In live mode
  the simulator cannot be checkpointed, so recovery re-attaches the
  seeded factory and re-advances from zero — slower, same bit-identity.
* **degraded merge** — when recovery is disabled, exhausted
  (``max_respawns``) or impossible (replay-buffer gap), the shard is
  marked *lost* and the merge synthesizes held decisions for its sites
  at every window boundary with geometrically decaying confidence —
  the PR 3 monitor semantics lifted to fleet level, so consumers see a
  telemetry blackout (confidence 0.0 freezes AIMD gates at their
  ``confidence_floor``), never an exception;
* **process chaos** — a seeded
  :class:`~repro.faults.process.ProcessFaultPlan` (kill -9 / hang /
  slow-reply at given ticks and workers) injects real process faults
  deterministically, so crash-recovery campaigns are CI-gateable like
  telemetry-fault campaigns.

Caveat: worker ``repro.obs`` registries die with their process, so
merged *metrics* can undercount the span before the last recovery
checkpoint after a crash; the decision stream itself stays exact.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.capacity import CapacityMeter
from ..core.coordinator import CoordinatedPrediction
from ..core.monitor import MonitorDecision
from ..drift.detector import DriftConfig, DriftDetector
from ..drift.handle import StagedSwap, next_window_boundary
from ..faults.checkpoint import (
    read_json_checkpoint,
    save_fleet_checkpoint,
    write_json_atomic,
)
from ..faults.process import ProcessFaultPlan, ProcessFaultSpec
from ..obs import OBS, MetricsRegistry, merge_snapshot, snapshot_lines
from ..parallel.pool import WorkerCrash, WorkerError, WorkerPool, WorkerTimeout
from ..telemetry.sampler import IntervalRecord, WindowStats
from .service import (
    SERVICE_FORMAT,
    SERVICE_FORMAT_V1,
    CapacityService,
    SiteDecision,
    SiteSpec,
)
from .snapshot import FleetSnapshot, SnapshotPublisher

__all__ = ["ShardedCapacityService", "partition_sites"]

#: (tick, site name, decision, post-update gate admission probability)
#: emitted by live-mode workers, merged on (tick, shard) in the parent
LiveDecision = Tuple[int, str, MonitorDecision, float]


def partition_sites(
    sites: Sequence[SiteSpec], workers: int
) -> List[List[SiteSpec]]:
    """Balanced *contiguous* partition of ``sites`` into ``workers`` shards.

    Contiguity is what makes the deterministic merge trivial: global
    site order == shard order + within-shard order, so concatenating
    per-shard decision lists per tick reproduces the single-process
    emission order exactly.  Never returns an empty shard (the worker
    count is clamped to the site count).
    """
    if workers < 1:
        raise ValueError("partition_sites needs at least one worker")
    if not sites:
        raise ValueError("partition_sites needs at least one site")
    workers = min(workers, len(sites))
    base, extra = divmod(len(sites), workers)
    shards: List[List[SiteSpec]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        shards.append(list(sites[start : start + size]))
        start += size
    return shards


# ----------------------------------------------------------------------
# worker-side state and tasks (module level: picklable by reference)
# ----------------------------------------------------------------------
#: this process's shard service (set by the pool initializer)
_SHARD: Optional[CapacityService] = None
#: live-mode state: simulator + captured (tick, name, decision, gate_p)
_LIVE: Dict[str, Any] = {}


def _init_shard(worker_index: int, common: Dict[str, Any]) -> None:
    """Pool initializer: build (or resume) this worker's shard service.

    Runs inside the pool's warm-up handshake, so meter rebuild and
    monitor cloning are done before the first chunk arrives.
    """
    global _SHARD
    # a fork-started worker inherits the parent's registry contents;
    # merging that copy back would double-count, so always start fresh
    OBS.reset()
    if common["obs"]:
        OBS.enable(registry=MetricsRegistry())
    specs: List[SiteSpec] = common["shards"][worker_index]
    labeler = common["labeler"]
    opts = common["opts"]
    if common["resume_dir"] is not None:
        _SHARD = CapacityService.resume(
            common["resume_dir"],
            specs,
            labeler=labeler,
            use_watchdog=opts["use_watchdog"],
            stall_ticks=opts["stall_ticks"],
            batch_votes=opts["batch_votes"],
            use_fleet=opts["use_fleet"],
            allow_subset=True,  # the parent validated the full list
            retain_decisions=opts["retain_decisions"],
        )
    else:
        meter = CapacityMeter.from_payload(common["meter"], labeler=labeler)
        _SHARD = CapacityService(
            meter,
            specs,
            adapt=opts["adapt"],
            labeler=labeler,
            min_votes=opts["min_votes"],
            max_imputed_fraction=opts["max_imputed_fraction"],
            confidence_decay=opts["confidence_decay"],
            use_watchdog=opts["use_watchdog"],
            stall_ticks=opts["stall_ticks"],
            batch_votes=opts["batch_votes"],
            use_fleet=opts["use_fleet"],
            retain_decisions=opts["retain_decisions"],
        )


def _shard() -> CapacityService:
    assert _SHARD is not None, "worker initializer did not run"
    return _SHARD


def _shard_replay_chunk(
    records: Sequence[IntervalRecord],
) -> List[List[SiteDecision]]:
    """Push one chunk of ticks; decisions grouped per tick."""
    service = _shard()
    return [service.push(record) for record in records]


def _shard_sync() -> int:
    """Write stacked fold state back (mirrors ``replay``'s final sync)."""
    service = _shard()
    if service.fleet is not None:
        service.fleet.sync()
    return service.ticks


def _shard_window() -> int:
    """Decision-window length in ticks (shared by every site)."""
    return int(_shard().sites[0].monitor.meter.window)


def _shard_stage_swap(
    payload: Dict[str, Any], version: int, effective: int
) -> int:
    """Stage a parent-issued meter hot-swap on this shard.

    The parent computes one ``(version, effective tick)`` pair and
    broadcasts it, so every shard installs the retrained meter at the
    same window boundary — the merged stream never mixes meter
    versions within a tick.  Installs immediately when the shard is
    already sitting on the boundary (``CapacityService.stage_swap``
    semantics); re-staging an installed version is a no-op, which is
    what makes post-crash re-broadcasts safe.
    """
    service = _shard()
    service.stage_swap(
        StagedSwap(version=version, effective_tick=effective, payload=payload)
    )
    return service.handle.version


def _shard_replay_chunk_slow(
    records: Sequence[IntervalRecord], delay: float
) -> List[List[SiteDecision]]:
    """Chaos ``slow``: stall, then answer correctly (a GC pause)."""
    time.sleep(delay)
    return _shard_replay_chunk(records)


def _shard_hang() -> None:
    """Chaos ``hang``: never reply within any sane deadline."""
    time.sleep(3600.0)


def _shard_save(directory: str, shard_index: int) -> Dict[str, Any]:
    """Write this shard's monitor file; return its manifest fragment."""
    service = _shard()
    if service.fleet is not None:
        service.fleet.sync()
    filename = f"fleet.monitor.{shard_index}.json"
    save_fleet_checkpoint(
        [(site.name, site.monitor) for site in service.sites],
        Path(directory) / filename,
    )
    return {
        "file": filename,
        "sites": [site.name for site in service.sites],
        "gates": {
            site.name: site.gate.state_dict() for site in service.sites
        },
        "injectors": {
            site.name: site.injector.state_dict()
            for site in service.sites
            if site.injector is not None
        },
        "watchdogs": {
            site.name: site.watchdog.state_dict()
            for site in service.sites
            if site.watchdog is not None
        },
    }


def _shard_summary() -> List[str]:
    return _shard().summary_rows()


def _shard_gate_states() -> Dict[str, Dict[str, Any]]:
    service = _shard()
    return {site.name: site.gate.state_dict() for site in service.sites}


def _shard_monitor_states() -> Dict[str, Dict[str, Any]]:
    """Post-sync ``state_dict`` + coordinator tables per site."""
    service = _shard()
    if service.fleet is not None:
        service.fleet.sync()
    return {
        site.name: {
            "state": site.monitor.state_dict(),
            "tables": site.monitor.meter.coordinator.table_state(),
        }
        for site in service.sites
    }


def _shard_obs_lines() -> Optional[List[str]]:
    """This worker's registry snapshot (None when obs is disabled)."""
    if not OBS.enabled:
        return None
    return snapshot_lines(OBS.registry)


def _shard_attach(
    factory: Callable[..., Tuple[Any, float]],
    factory_args: Tuple[Any, ...],
) -> float:
    """Live mode: build this shard's simulator and start sampling.

    ``factory(service, *factory_args)`` is a module-level callable (the
    CLI provides one) that constructs the shard's websites and
    simulator, calls :meth:`CapacityService.attach`, and returns
    ``(sim, duration)``.  Decisions are captured with their tick and
    post-update gate probability so the parent can merge streams from
    independent per-shard simulators on ``(tick, shard order)``.
    """
    service = _shard()
    captured: List[LiveDecision] = []

    def on_decision(name: str, decision: MonitorDecision) -> None:
        captured.append(
            (
                service.ticks,
                name,
                decision,
                service.site(name).gate.admission_probability,
            )
        )

    service.on_decision = on_decision
    sim, duration = factory(service, *factory_args)
    _LIVE["sim"] = sim
    _LIVE["captured"] = captured
    return float(duration)


def _shard_advance(until: float) -> Tuple[List[LiveDecision], int]:
    """Advance this shard's simulator to ``until``; drain captures."""
    _LIVE["sim"].run(until=until)
    captured: List[LiveDecision] = _LIVE["captured"]
    drained = list(captured)
    captured.clear()
    return drained, _shard().ticks


def _shard_advance_slow(
    until: float, delay: float
) -> Tuple[List[LiveDecision], int]:
    """Chaos ``slow`` for live mode: stall, then advance correctly."""
    time.sleep(delay)
    return _shard_advance(until)


def _shard_detach() -> None:
    """Stop live sampling (keeps the service resumable/saveable)."""
    _shard().stop()


@dataclass
class _Chunk:
    """One dispatched slice of the record stream.

    ``start``/``end`` are *global service ticks* (1-based, inclusive)
    so recovery knows exactly which span a redelivery must cover.
    """

    records: List[IntervalRecord]
    start: int
    end: int


# ----------------------------------------------------------------------
class ShardedCapacityService:
    """N sites sharded across worker processes, one merged stream.

    Replay mode mirrors :class:`CapacityService`: :meth:`push` /
    :meth:`replay` return ``(site name, decision)`` pairs in the exact
    order the single-process service would emit them, and
    ``on_decision`` observes the merged stream.  :meth:`save` writes a
    ``"sharded"`` service checkpoint that any worker count — including
    the single-process service — can resume; :meth:`resume` reads any
    v1/v2 layout.  Always :meth:`close` (or use as a context manager):
    the workers are real processes.
    """

    def __init__(
        self,
        meter: Optional[CapacityMeter],
        sites: Sequence[SiteSpec],
        *,
        workers: int,
        adapt: bool = False,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        min_votes: Optional[int] = None,
        max_imputed_fraction: float = 0.5,
        confidence_decay: float = 0.5,
        use_watchdog: bool = True,
        stall_ticks: int = 3,
        batch_votes: bool = True,
        use_fleet: bool = True,
        retain_decisions: Optional[int] = None,
        on_decision: Optional[Callable[[str, MonitorDecision], None]] = None,
        chunk_ticks: int = 16,
        recover: bool = True,
        max_respawns: int = 3,
        supervise_ticks: int = 256,
        recv_timeout: Optional[float] = None,
        replay_buffer_ticks: Optional[int] = None,
        process_faults: Optional[ProcessFaultPlan] = None,
        supervise_dir: Optional[Union[str, Path]] = None,
        _resume_dir: Optional[str] = None,
        _resume_ticks: int = 0,
        _resume_meter_version: int = 1,
        _resume_pending: Optional[Dict[str, Any]] = None,
        _resume_drift: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not sites:
            raise ValueError("ShardedCapacityService needs at least one site")
        names = [spec.name for spec in sites]
        if len(set(names)) != len(names):
            raise ValueError("duplicate site names in the sharded fleet")
        if chunk_ticks < 1:
            raise ValueError("chunk_ticks must be positive")
        if meter is None and _resume_dir is None:
            raise ValueError("a meter is required unless resuming")
        if max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if supervise_ticks < 0:
            raise ValueError("supervise_ticks must be non-negative")
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive (or None)")
        if labeler is None and meter is not None:
            labeler = meter.labeler
        shards = partition_sites(sites, workers)
        if process_faults is not None:
            if process_faults.max_worker() >= len(shards):
                raise ValueError(
                    f"process fault plan targets worker "
                    f"{process_faults.max_worker()} but only "
                    f"{len(shards)} shards exist"
                )
            if recv_timeout is None and any(
                spec.kind == "hang" for spec in process_faults.faults
            ):
                raise ValueError(
                    "hang faults need recv_timeout: a hung worker is "
                    "only detectable via a reply deadline"
                )
        self.shards = shards
        self.site_names = names
        self.on_decision = on_decision
        self.chunk_ticks = chunk_ticks
        self.ticks = _resume_ticks
        self._closed = False
        # --- supervision state -----------------------------------------
        self._recover = recover
        self._max_respawns = max_respawns
        self._supervise_ticks = supervise_ticks
        self._recv_timeout = recv_timeout
        self._plan = process_faults
        self._fired: Set[int] = set()
        self._respawns: List[int] = [0] * len(shards)
        self._lost: Set[int] = set()
        self._lost_reasons: Dict[int, str] = {}
        self._resume_base = _resume_ticks
        self._resume_dir = _resume_dir
        if replay_buffer_ticks is not None:
            span: Optional[int] = replay_buffer_ticks
        elif not recover:
            span = 0  # nothing to replay into; skip the buffering cost
        elif supervise_ticks > 0:
            # worst-case recovery gap: one full checkpoint period plus
            # the chunk in flight and the chunk being merged
            span = supervise_ticks + 2 * chunk_ticks
        else:
            span = None  # no periodic checkpoints: keep everything
        self._replay_buffer: Deque[Tuple[int, IntervalRecord]] = deque(
            maxlen=span
        )
        self._ckpt_root = (
            None if supervise_dir is None else Path(supervise_dir)
        )
        self._ckpt_owned = False
        self._ckpt_path: Optional[Path] = None
        self._ckpt_ticks = -1
        # degraded-merge state: last decision + held streak per site
        self._confidence_decay = confidence_decay
        self._last_decisions: Dict[str, MonitorDecision] = {}
        self._held_streaks: Dict[str, int] = {}
        self._last_gate_p: Dict[str, float] = {}
        self._held_emitted = 0
        # --- drift + hot-swap state ------------------------------------
        # the workers own the MeterHandles; the parent mirrors their
        # version arithmetic from a swap log of (staged swap, tick it
        # was staged at) so checkpoints, snapshots and recovery all
        # agree on which meter version is installed at any tick
        self._base_meter_version = int(_resume_meter_version)
        self._published_version = int(_resume_meter_version)
        self._swap_log: List[Tuple[StagedSwap, int]] = []
        self._ckpt_meter_version = int(_resume_meter_version)
        self.drift: Optional[DriftDetector] = None
        self._drift_manifest_state: Optional[Dict[str, Any]] = (
            dict(_resume_drift) if _resume_drift is not None else None
        )
        if _resume_pending is not None:
            # a swap the saved service had staged but not installed;
            # each worker re-stages it itself (CapacityService.resume
            # reads the same manifest) — the parent only needs it in
            # the log for version accounting and re-broadcasts
            self._swap_log.append(
                (StagedSwap.from_manifest(dict(_resume_pending)), _resume_ticks)
            )
        #: latest published FleetSnapshot; None until enable_snapshots()
        self.snapshot: Optional[FleetSnapshot] = None
        self._publisher: Optional[SnapshotPublisher] = None
        # live mode: factory + last merged slice boundary for recovery
        self._live_factory: Optional[Callable[..., Tuple[Any, float]]] = None
        self._live_args: Tuple[Any, ...] = ()
        self._live_now = 0.0
        common: Dict[str, Any] = {
            "obs": OBS.enabled,
            "meter": meter.to_payload() if meter is not None else None,
            "labeler": labeler,
            "shards": shards,
            "resume_dir": _resume_dir,
            "opts": {
                "adapt": adapt,
                "min_votes": min_votes,
                "max_imputed_fraction": max_imputed_fraction,
                "confidence_decay": confidence_decay,
                "use_watchdog": use_watchdog,
                "stall_ticks": stall_ticks,
                "batch_votes": batch_votes,
                "use_fleet": use_fleet,
                "retain_decisions": retain_decisions,
            },
        }
        self._common = common
        # the pool's warm-up handshake doubles as the meter broadcast:
        # __init__ returns only after every shard is built and ready
        self.pool = WorkerPool(
            len(shards), initializer=_init_shard, initargs=(common,)
        )
        # window length (in ticks) drives degraded-merge synthesis; fetch
        # it now while the pipes are idle — mid-replay a probe would
        # desync the strict request-response protocol
        if meter is not None:
            self._window = int(meter.window)
        else:
            self._window = int(self.pool.call(0, _shard_window))

    @classmethod
    def resume(
        cls,
        directory: Union[str, Path],
        sites: Sequence[SiteSpec],
        *,
        workers: int,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        use_watchdog: bool = True,
        stall_ticks: int = 3,
        batch_votes: bool = True,
        use_fleet: bool = True,
        allow_subset: bool = False,
        retain_decisions: Optional[int] = None,
        on_decision: Optional[Callable[[str, MonitorDecision], None]] = None,
        chunk_ticks: int = 16,
        recover: bool = True,
        max_respawns: int = 3,
        supervise_ticks: int = 256,
        recv_timeout: Optional[float] = None,
        replay_buffer_ticks: Optional[int] = None,
        process_faults: Optional[ProcessFaultPlan] = None,
        supervise_dir: Optional[Union[str, Path]] = None,
    ) -> "ShardedCapacityService":
        """Resume any service checkpoint across ``workers`` processes.

        The worker count is independent of the one that wrote the
        checkpoint: each worker resumes its own contiguous slice via
        :meth:`CapacityService.resume`, which reads per-site, fleet and
        sharded layouts alike.  Manifest validation (format, missing
        gate state, orphaned sites unless ``allow_subset``) happens
        once here in the parent, exactly as the single-process resume
        would report it.
        """
        target = Path(directory)
        manifest = read_json_checkpoint(target / "service.json")
        if manifest.get("format") not in (SERVICE_FORMAT, SERVICE_FORMAT_V1):
            raise ValueError(f"{target} is not a service checkpoint")
        gate_states = manifest["gates"]
        supplied = {spec.name for spec in sites}
        lost = set(manifest.get("lost_sites", ()))
        for spec in sites:
            if spec.name not in gate_states:
                if spec.name in lost:
                    raise ValueError(
                        f"site {spec.name!r} was being served degraded "
                        f"(its shard worker was lost) when this "
                        f"checkpoint was written, so it has no state; "
                        f"drop it from the fleet or resume an earlier "
                        f"checkpoint"
                    )
                raise ValueError(
                    f"checkpoint has no gate state for site {spec.name!r}"
                )
        orphans = sorted(name for name in gate_states if name not in supplied)
        if orphans and not allow_subset:
            raise ValueError(
                f"checkpoint has state for sites not in the supplied "
                f"list: {orphans}; pass allow_subset=True to resume "
                f"without them"
            )
        return cls(
            None,
            sites,
            workers=workers,
            labeler=labeler,
            use_watchdog=use_watchdog,
            stall_ticks=stall_ticks,
            batch_votes=batch_votes,
            use_fleet=use_fleet,
            retain_decisions=retain_decisions,
            on_decision=on_decision,
            chunk_ticks=chunk_ticks,
            recover=recover,
            max_respawns=max_respawns,
            supervise_ticks=supervise_ticks,
            recv_timeout=recv_timeout,
            replay_buffer_ticks=replay_buffer_ticks,
            process_faults=process_faults,
            supervise_dir=supervise_dir,
            _resume_dir=str(target),
            _resume_ticks=int(manifest["ticks"]),
            _resume_meter_version=int(manifest.get("meter_version", 1)),
            _resume_pending=manifest.get("pending_swap"),
            _resume_drift=manifest.get("drift"),
        )

    # ------------------------------------------------------------------
    # supervisor: failure accounting, recovery, degraded synthesis
    # ------------------------------------------------------------------
    @property
    def lost_workers(self) -> Tuple[int, ...]:
        """Workers the supervisor has given up on, ascending."""
        return tuple(sorted(self._lost))

    def lost_sites(self) -> List[str]:
        """Sites currently served by degraded-merge synthesis only."""
        return [
            spec.name
            for worker in sorted(self._lost)
            for spec in self.shards[worker]
        ]

    def enable_snapshots(self) -> FleetSnapshot:
        """Start publishing lock-free gate-state snapshots.

        Mirrors :meth:`CapacityService.enable_snapshots`: every merged
        chunk / live slice ends by swapping a fresh immutable
        :class:`~repro.control.snapshot.FleetSnapshot` into
        ``self.snapshot`` via a single reference assignment, readable
        from any thread without a lock.  Gates live in the workers, so
        entries start at the AIMD initial probability (1.0) and track
        live-mode gate reports thereafter (replay merges carry no gate
        probabilities — those entries keep their last value).  The
        snapshot's ``lost_sites`` mirrors :meth:`lost_sites`, which is
        what makes ``GET /healthz`` degraded-aware.
        """
        self._publisher = SnapshotPublisher(
            {
                spec.name: 1.0
                for shard in self.shards
                for spec in shard
            }
        )
        self.snapshot = self._publisher.publish(
            self.ticks,
            tuple(self.lost_sites()),
            meter_version=self.meter_version,
        )
        return self.snapshot

    # ------------------------------------------------------------------
    # drift detection and meter hot-swap
    # ------------------------------------------------------------------
    @staticmethod
    def _install_tick(swap: StagedSwap, staged_tick: int) -> int:
        """First tick at which the workers have ``swap`` installed.

        Staged *at* the boundary → the workers' ``stage_swap`` installs
        immediately (the boundary window has already decided); staged
        mid-window → they install on the first push past the boundary.
        """
        if staged_tick >= swap.effective_tick:
            return swap.effective_tick
        return swap.effective_tick + 1

    def _installed_version(self, tick: int) -> int:
        """The meter version the workers serve as of ``tick``."""
        version = self._base_meter_version
        for swap, staged in self._swap_log:
            if self._install_tick(swap, staged) <= tick:
                version = max(version, swap.version)
        return version

    @property
    def window(self) -> int:
        """The decision window length (ticks) all sites share."""
        return int(self._window)

    @property
    def meter_version(self) -> int:
        """The installed meter version (1 until the first hot-swap)."""
        return self._installed_version(self.ticks)

    def _pending_swap(self) -> Optional[StagedSwap]:
        """The staged-but-not-installed swap, if any (latest version)."""
        latest: Optional[StagedSwap] = None
        for swap, staged in self._swap_log:
            if self._install_tick(swap, staged) > self.ticks:
                if latest is None or swap.version > latest.version:
                    latest = swap
        return latest

    def _sync_version(self, tick: int) -> None:
        """Fire install side effects once a swap's boundary passes.

        The workers install mid-push; the parent notices when its merge
        loop crosses the install tick — before folding that tick's
        decisions into the drift detector, so a fresh meter starts with
        clean drift horizons exactly as the single-process path does.
        """
        version = self._installed_version(tick)
        if version == self._published_version:
            return
        self._published_version = version
        if self.drift is not None:
            self.drift.notify_swap()
        if OBS.enabled:
            # repro_meter_swaps_total is counted inside the workers
            # (each shard installs); merging would double-count a
            # parent-side increment, so only the gauge lives here
            OBS.set(
                "repro_meter_version",
                float(version),
                help="Installed meter version.",
            )

    def enable_drift(
        self, config: Optional[DriftConfig] = None
    ) -> DriftDetector:
        """Put a drift detector on the merged decision path.

        Detection is parent-side — the detector folds the merged
        stream, so its verdicts are identical for any worker count and
        survive worker crashes untouched.  Synthesized decisions for
        lost shards are *not* folded: a dead worker is a blackout the
        health endpoint already reports, not evidence the meter's
        model of the workload went stale.
        """
        self.drift = DriftDetector(config)
        if self._drift_manifest_state is not None:
            self.drift.load_state(self._drift_manifest_state)
            self._drift_manifest_state = None
        return self.drift

    def _observe_drift(
        self, name: str, decision: MonitorDecision
    ) -> Optional[bool]:
        """Fold one merged decision into the detector; drift flag."""
        if self.drift is None:
            return None
        return self.drift.observe(name, decision).drifted

    def swap_meter(
        self,
        meter: Union[CapacityMeter, Dict[str, Any]],
        *,
        version: Optional[int] = None,
    ) -> StagedSwap:
        """Stage a hot-swap to a retrained meter on every shard.

        Must be called at a pipe-idle point (between :meth:`push` /
        :meth:`replay` / :meth:`advance` calls — anywhere user code
        runs).  One ``(version, effective tick)`` pair is broadcast to
        all shards, so the swap lands at the same window boundary
        everywhere and the merged stream is bit-identical to the
        single-process service staging the same swap at the same tick.
        A worker that crashes during the broadcast is recovered and the
        log re-staged, so the swap is never half-applied.
        """
        payload = (
            meter.to_payload()
            if isinstance(meter, CapacityMeter)
            else dict(meter)
        )
        if version is None:
            top = self._base_meter_version
            for swap, _ in self._swap_log:
                top = max(top, swap.version)
            version = top + 1
        effective = next_window_boundary(self.ticks, self._window)
        staged = StagedSwap(
            version=version, effective_tick=effective, payload=payload
        )
        # log before broadcasting: recovery inside _call_live must
        # already see this entry to re-stage it on a respawned worker
        self._swap_log.append((staged, self.ticks))
        self._call_live(
            _shard_stage_swap,
            lambda worker: (staged.payload, staged.version, staged.effective_tick),
        )
        self._sync_version(self.ticks)
        return staged

    def _restage_swaps(self, worker: int, base_version: int) -> None:
        """Re-stage logged swaps newer than ``base_version`` on ``worker``.

        Runs right after a respawn, before any replay/attach traffic,
        so the recovered shard installs each swap at exactly the tick
        the uninterrupted run did.  Raises ``WorkerError`` on failure —
        the caller's recovery loop owns the respawn budget.
        """
        for swap, _ in self._swap_log:
            if swap.version <= base_version:
                continue
            self.pool.submit(
                worker,
                _shard_stage_swap,
                swap.payload,
                swap.version,
                swap.effective_tick,
            )
            self.pool.result(worker, None)

    def supervisor_stats(self) -> Dict[str, Any]:
        """Operational summary of the self-healing machinery."""
        return {
            "respawns": list(self._respawns),
            "lost": sorted(self._lost),
            "lost_reasons": dict(self._lost_reasons),
            "checkpoint_ticks": self._ckpt_ticks,
            "faults_fired": len(self._fired),
            "held_synthesized": self._held_emitted,
            "meter_version": self.meter_version,
        }

    def _note_failure(self, worker: int, exc: WorkerError) -> None:
        if OBS.enabled:
            kind = "timeout" if isinstance(exc, WorkerTimeout) else "crash"
            OBS.inc(
                "repro_shard_worker_failures_total",
                help="worker crashes and hang timeouts seen by the "
                "shard supervisor",
                kind=kind,
            )

    def _mark_lost(self, worker: int, reason: str) -> None:
        if worker in self._lost:
            return
        self._lost.add(worker)
        self._lost_reasons[worker] = reason
        if OBS.enabled:
            OBS.inc(
                "repro_shard_workers_lost_total",
                help="shards abandoned to degraded-merge serving",
            )

    def _recovery_source(self) -> Tuple[Optional[str], int, int]:
        """(resume dir, tick base, meter version) of the freshest state.

        Preference order: last recovery checkpoint > the directory this
        service itself resumed from > cold rebuild from the broadcast
        meter payload (base 0).  The meter version says which swaps the
        source's tables already contain, so recovery re-stages exactly
        the newer ones.
        """
        if self._ckpt_path is not None:
            return str(self._ckpt_path), self._ckpt_ticks, self._ckpt_meter_version
        if self._resume_dir is not None:
            return self._resume_dir, self._resume_base, self._base_meter_version
        # __init__ guaranteed a meter payload exists (original version)
        return None, 0, self._base_meter_version

    def _buffered(self, base: int, upto: int) -> Optional[List[IntervalRecord]]:
        """Records for ticks ``base+1 .. upto``; None on a buffer gap."""
        if upto <= base:
            return []
        records = [
            record
            for tick, record in self._replay_buffer
            if base < tick <= upto
        ]
        if len(records) != upto - base:
            return None
        return records

    def _buffer_records(self, chunk: _Chunk) -> None:
        for offset, record in enumerate(chunk.records):
            self._replay_buffer.append((chunk.start + offset, record))

    def _recover_worker(self, worker: int, upto: int) -> bool:
        """Rebuild ``worker``'s shard bit-identically through ``upto``.

        Respawns the process, resumes the shard from the freshest
        source, and replays the intervening ticks from the in-parent
        buffer.  Returns False — marking the worker lost — when
        recovery is disabled, the respawn budget is exhausted, or the
        buffer cannot cover the gap.
        """
        if not self._recover:
            self._mark_lost(worker, "recovery disabled")
            return False
        t0 = time.monotonic()
        while self._respawns[worker] < self._max_respawns:
            self._respawns[worker] += 1
            if OBS.enabled:
                OBS.inc(
                    "repro_shard_respawns_total",
                    help="worker processes respawned by the supervisor",
                )
            source, base, base_version = self._recovery_source()
            records = self._buffered(base, upto)
            if records is None:
                self._mark_lost(
                    worker,
                    f"replay buffer cannot cover ticks "
                    f"{base + 1}..{upto}",
                )
                return False
            try:
                common = dict(self._common)
                common["resume_dir"] = source
                self.pool.respawn(worker, initargs=(common,))
                # swaps newer than the source's tables must be staged
                # before the replay so they install at the right ticks
                self._restage_swaps(worker, base_version)
                if records:
                    # rebuild replay: decisions recomputed and discarded
                    self.pool.submit(worker, _shard_replay_chunk, records)
                    self.pool.result_bytes(worker, None)
                if OBS.enabled:
                    OBS.observe(
                        "repro_shard_recovery_seconds",
                        time.monotonic() - t0,
                        help="wall-clock latency of shard crash recovery",
                    )
                return True
            except WorkerError as exc:
                self._note_failure(worker, exc)
                continue
        self._mark_lost(worker, "respawn budget exhausted")
        return False

    def _recover_live(self, worker: int) -> bool:
        """Live-mode recovery: rebuild and re-simulate from zero.

        A simulator cannot be checkpointed mid-flight, so the shard is
        rebuilt from its *original* source, the factory re-attached,
        and the sim re-advanced to the last merged slice boundary
        (captures discarded) — bit-identical because everything is
        seeded from the site specs.
        """
        if not self._recover:
            self._mark_lost(worker, "recovery disabled")
            return False
        t0 = time.monotonic()
        while self._respawns[worker] < self._max_respawns:
            self._respawns[worker] += 1
            if OBS.enabled:
                OBS.inc(
                    "repro_shard_respawns_total",
                    help="worker processes respawned by the supervisor",
                )
            try:
                self.pool.respawn(worker, initargs=(self._common,))
                # the shard rebuilt from its original source: stage the
                # whole swap log again before re-simulating, so each
                # swap re-installs at the tick the original run used
                self._restage_swaps(worker, self._base_meter_version)
                if self._live_factory is not None:
                    self.pool.submit(
                        worker,
                        _shard_attach,
                        self._live_factory,
                        self._live_args,
                    )
                    self.pool.result(worker, None)
                    if self._live_now > 0.0:
                        self.pool.submit(worker, _shard_advance, self._live_now)
                        self.pool.result(worker, None)  # discard captures
                if OBS.enabled:
                    OBS.observe(
                        "repro_shard_recovery_seconds",
                        time.monotonic() - t0,
                        help="wall-clock latency of shard crash recovery",
                    )
                return True
            except WorkerError as exc:
                self._note_failure(worker, exc)
                continue
        self._mark_lost(worker, "respawn budget exhausted")
        return False

    def _recover_any(self, worker: int) -> bool:
        """Mode-appropriate recovery through the current tick."""
        if self._live_factory is not None:
            return self._recover_live(worker)
        return self._recover_worker(worker, self.ticks)

    def _due_fault(self, worker: int, upto: int) -> Optional[ProcessFaultSpec]:
        """Next unfired chaos spec for ``worker`` due by tick ``upto``."""
        if self._plan is None:
            return None
        for index, spec in enumerate(self._plan.faults):
            if index in self._fired or spec.worker != worker:
                continue
            if spec.tick <= upto:
                self._fired.add(index)
                if OBS.enabled:
                    OBS.inc(
                        "repro_shard_process_faults_total",
                        help="process chaos faults injected",
                        kind=spec.kind,
                    )
                return spec
        return None

    def _maybe_checkpoint(self) -> None:
        """Periodic recovery checkpoint at the pipe-idle point."""
        if not self._recover or self._supervise_ticks <= 0:
            return
        base = self._ckpt_ticks if self._ckpt_ticks >= 0 else self._resume_base
        if self.ticks - base < self._supervise_ticks:
            return
        if self._ckpt_root is None:
            self._ckpt_root = Path(
                tempfile.mkdtemp(prefix="repro-shard-supervise-")
            )
            self._ckpt_owned = True
        target = self._ckpt_root / f"ticks-{self.ticks}"
        t0 = time.monotonic()
        try:
            self.save(target)
        except WorkerError:
            # a crash mid-checkpoint was handled (or the worker marked
            # lost) inside save(); skip this period, keep serving
            return
        previous = self._ckpt_path
        self._ckpt_path, self._ckpt_ticks = target, self.ticks
        self._ckpt_meter_version = self.meter_version
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        if OBS.enabled:
            OBS.observe_span(
                "shard_supervise_checkpoint", time.monotonic() - t0
            )

    def _synthesize(self, worker: int, tick: int) -> List[SiteDecision]:
        """Held decisions for a lost shard's sites at a window boundary.

        Exactly the monitor's quorum-failure fallback lifted to fleet
        level: last decision re-emitted with geometrically decayed
        counter value, no synopsis votes, everyone abstained — so
        ``MonitorDecision.confidence`` is 0.0 and AIMD gates freeze at
        their floor.  Sites with no prior decision are skipped (there
        is nothing to hold).  ``truth``/``stats`` are the stale values
        from the last real window: a blackout has no fresh telemetry.
        """
        if self._window <= 0 or tick % self._window != 0:
            return []
        out: List[SiteDecision] = []
        for spec in self.shards[worker]:
            last = self._last_decisions.get(spec.name)
            if last is None:
                continue
            streak = self._held_streaks.get(spec.name, 0) + 1
            self._held_streaks[spec.name] = streak
            prev = last.prediction
            total = len(prev.synopsis_votes) or len(prev.abstained)
            prediction = CoordinatedPrediction(
                state=prev.state,
                bottleneck=prev.bottleneck,
                gpv=prev.gpv,
                hc=prev.hc * self._confidence_decay,
                confident=False,
                synopsis_votes=(),
                degraded=True,
                abstained=tuple(range(total)),
            )
            span = last.t_end - last.t_start
            decision = MonitorDecision(
                index=last.index + 1,
                t_start=last.t_start + span,
                t_end=last.t_end + span,
                prediction=prediction,
                truth=last.truth,
                truth_bottleneck=last.truth_bottleneck,
                stats=last.stats,
                held=True,
                quality=last.quality,
            )
            self._last_decisions[spec.name] = decision
            self._held_emitted += 1
            if OBS.enabled:
                OBS.inc(
                    "repro_shard_held_synthesized_total",
                    help="held decisions synthesized for lost shards",
                )
            out.append((spec.name, decision))
        return out

    # ------------------------------------------------------------------
    # replay mode
    # ------------------------------------------------------------------
    def _submit_chunk(
        self, worker: int, chunk: _Chunk, fault: Optional[ProcessFaultSpec]
    ) -> None:
        if fault is not None and fault.kind == "hang":
            self.pool.submit(worker, _shard_hang)
            return
        if fault is not None and fault.kind == "kill":
            # kill BEFORE submitting: the worker is idle at dispatch
            # (strict request-response), so a pre-submit SIGKILL always
            # loses this chunk.  Killing after submit races the worker —
            # a fast worker can finish the chunk before the signal
            # lands, which makes degraded (no-recover) campaigns
            # nondeterministic about which window goes HELD.
            pid = self.pool.pid(worker)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        if fault is not None and fault.kind == "slow":
            self.pool.submit(
                worker, _shard_replay_chunk_slow, chunk.records, fault.delay
            )
        else:
            self.pool.submit(worker, _shard_replay_chunk, chunk.records)

    def _dispatch_chunk(self, chunk: _Chunk) -> None:
        for worker in range(self.pool.size):
            if worker in self._lost:
                continue
            fault = self._due_fault(worker, chunk.end)
            try:
                self._submit_chunk(worker, chunk, fault)
            except WorkerCrash as exc:
                # died since its last reply; leave the slot empty —
                # collection will detect the dead worker and recover
                self._note_failure(worker, exc)

    def _recover_and_redo(self, worker: int, chunk: _Chunk) -> Optional[bytes]:
        """Recover ``worker`` and re-run the in-flight chunk."""
        while self._recover_worker(worker, chunk.start - 1):
            try:
                self.pool.submit(worker, _shard_replay_chunk, chunk.records)
                return self.pool.result_bytes(worker, self._recv_timeout)
            except (WorkerCrash, WorkerTimeout) as exc:
                self._note_failure(worker, exc)
        return None

    def _collect_chunk(self, chunk: _Chunk) -> Dict[int, Optional[bytes]]:
        """Pull chunk replies off every pipe, recovering as needed.

        Pipes are strictly per-worker, so one worker's crash never
        desyncs another's request-response stream.  Advances the global
        tick counter and the replay buffer — both must reflect this
        chunk before the next checkpoint or recovery looks at them.
        """
        blobs: Dict[int, Optional[bytes]] = {}
        for worker in range(self.pool.size):
            if worker in self._lost:
                blobs[worker] = None
                continue
            try:
                blobs[worker] = self.pool.result_bytes(
                    worker, self._recv_timeout
                )
            except (WorkerCrash, WorkerTimeout) as exc:
                self._note_failure(worker, exc)
                blobs[worker] = self._recover_and_redo(worker, chunk)
        self.ticks = chunk.end
        self._buffer_records(chunk)
        return blobs

    def _emit_chunk(
        self, chunk: _Chunk, blobs: Dict[int, Optional[bytes]]
    ) -> List[SiteDecision]:
        """Merge one chunk: tick-major, shard-major, site-major.

        Lost shards contribute synthesized held decisions at their
        window boundaries, in the same shard-order slot their real
        decisions would occupy.
        """
        decoded: Dict[int, List[List[SiteDecision]]] = {
            worker: self.pool.load_result(blob, worker)
            for worker, blob in blobs.items()
            if blob is not None
        }
        merged: List[SiteDecision] = []
        for offset in range(len(chunk.records)):
            tick = chunk.start + offset
            self._sync_version(tick)
            for worker in range(self.pool.size):
                out = decoded.get(worker)
                if out is None:
                    emitted = self._synthesize(worker, tick)
                    synthesized = True
                else:
                    emitted = out[offset]
                    synthesized = False
                    for name, decision in emitted:
                        self._last_decisions[name] = decision
                        self._held_streaks[name] = 0
                for name, decision in emitted:
                    drifted = (
                        None
                        if synthesized
                        else self._observe_drift(name, decision)
                    )
                    if self._publisher is not None:
                        self._publisher.update(name, decision, drifted=drifted)
                    if self.on_decision is not None:
                        self.on_decision(name, decision)
                    merged.append((name, decision))
        if self._publisher is not None:
            self.snapshot = self._publisher.publish(
                self.ticks,
                tuple(self.lost_sites()),
                meter_version=self.meter_version,
            )
        return merged

    def push(self, record: IntervalRecord) -> List[SiteDecision]:
        """Offer one record to every site, merged like the fleet path."""
        chunk = _Chunk([record], self.ticks + 1, self.ticks + 1)
        self._dispatch_chunk(chunk)
        blobs = self._collect_chunk(chunk)
        return self._emit_chunk(chunk, blobs)

    def replay(
        self, records: Sequence[IntervalRecord]
    ) -> List[SiteDecision]:
        """Replay a recorded stream, chunked, pipelined and supervised.

        Chunk ``k``'s reply blobs are pulled off every pipe and chunk
        ``k + 1`` dispatched *before* chunk ``k`` is unpickled and
        merged, so the parent's merge work overlaps the workers'
        compute.  The pipe-idle instant between collect and dispatch is
        where periodic recovery checkpoints happen; worker crashes and
        hangs during collection trigger bit-identical recovery (or
        degraded-merge synthesis once a worker is lost).
        """
        decisions: List[SiteDecision] = []
        base = self.ticks
        chunks: List[_Chunk] = []
        for start in range(0, len(records), self.chunk_ticks):
            recs = list(records[start : start + self.chunk_ticks])
            chunks.append(
                _Chunk(recs, base + start + 1, base + start + len(recs))
            )
        pending: Optional[_Chunk] = None
        for chunk in chunks:
            if pending is not None:
                # strict request-response per worker: never two chunks
                # queued at once, so a full pipe can't deadlock us
                blobs = self._collect_chunk(pending)
                self._maybe_checkpoint()
                self._dispatch_chunk(chunk)
                decisions.extend(self._emit_chunk(pending, blobs))
            else:
                self._dispatch_chunk(chunk)
            pending = chunk
        if pending is not None:
            blobs = self._collect_chunk(pending)
            decisions.extend(self._emit_chunk(pending, blobs))
        self.sync()
        return decisions

    # ------------------------------------------------------------------
    # supervised control-plane calls (pipes idle, per-worker recovery)
    # ------------------------------------------------------------------
    def _call_one(
        self, worker: int, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> Tuple[bool, Any]:
        """Run ``fn`` on one worker, recovering across failures.

        Terminates because every failed iteration consumes at least one
        unit of the worker's respawn budget.
        """
        while True:
            try:
                self.pool.submit(worker, fn, *args)
                return True, self.pool.result(worker, None)
            except (WorkerCrash, WorkerTimeout) as exc:
                self._note_failure(worker, exc)
                if not self._recover_any(worker):
                    return False, None

    def _call_live(
        self,
        fn: Callable[..., Any],
        argfn: Callable[[int], Tuple[Any, ...]],
    ) -> Dict[int, Any]:
        """Run ``fn(*argfn(w))`` on every live worker; worker → result.

        Submits in parallel, collects in worker order; a worker that
        fails is recovered (mode-appropriately) and retried, or marked
        lost and omitted from the result.
        """
        live = [w for w in range(self.pool.size) if w not in self._lost]
        results: Dict[int, Any] = {}
        submitted: List[int] = []
        failed: List[int] = []
        for worker in live:
            try:
                self.pool.submit(worker, fn, *argfn(worker))
                submitted.append(worker)
            except WorkerCrash as exc:
                self._note_failure(worker, exc)
                failed.append(worker)
        for worker in submitted:
            try:
                results[worker] = self.pool.result(worker, None)
            except (WorkerCrash, WorkerTimeout) as exc:
                self._note_failure(worker, exc)
                failed.append(worker)
        for worker in failed:
            ok, value = self._call_one(worker, fn, argfn(worker))
            if ok:
                results[worker] = value
        return results

    # ------------------------------------------------------------------
    # live mode (driven by the CLI)
    # ------------------------------------------------------------------
    def attach_factory(
        self,
        factory: Callable[..., Tuple[Any, float]],
        *factory_args: Any,
    ) -> float:
        """Start live sampling on every shard; returns max duration.

        ``factory`` must be a module-level callable; it runs once per
        worker as ``factory(shard_service, *factory_args)``, builds the
        shard's simulator + websites, attaches them, and returns
        ``(sim, duration)``.  The factory is retained so crash recovery
        can rebuild a shard's simulator from scratch.
        """
        self._live_factory = factory
        self._live_args = factory_args
        self._live_now = 0.0
        outs = self._call_live(
            _shard_attach, lambda worker: (factory, factory_args)
        )
        return max((float(d) for d in outs.values()), default=0.0)

    def _submit_advance(
        self, worker: int, until: float, fault: Optional[ProcessFaultSpec]
    ) -> None:
        if fault is not None and fault.kind == "hang":
            self.pool.submit(worker, _shard_hang)
            return
        if fault is not None and fault.kind == "kill":
            # pre-submit kill, same reasoning as _submit_chunk: the
            # idle worker deterministically loses the whole advance
            pid = self.pool.pid(worker)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        if fault is not None and fault.kind == "slow":
            self.pool.submit(worker, _shard_advance_slow, until, fault.delay)
        else:
            self.pool.submit(worker, _shard_advance, until)

    def _recover_and_advance(
        self, worker: int, until: float
    ) -> Optional[Tuple[List[LiveDecision], int]]:
        while self._recover_live(worker):
            try:
                self.pool.submit(worker, _shard_advance, until)
                out = self.pool.result(worker, None)
                return (list(out[0]), int(out[1]))
            except (WorkerCrash, WorkerTimeout) as exc:
                self._note_failure(worker, exc)
        return None

    def advance(self, until: float) -> List[Tuple[str, MonitorDecision, float]]:
        """Advance every shard's simulator to ``until``; merged stream.

        Returns ``(site name, decision, gate admission probability)``
        triples ordered by ``(tick, shard, within-shard order)`` — the
        order the single-process live loop emits them.  Chaos faults
        due by the current tick fire at this slice boundary; a crashed
        or hung shard is re-simulated from zero and re-advanced, so the
        merged stream stays bit-identical to a fault-free run.  Lost
        shards contribute synthesized held decisions at their window
        boundaries (gate probability frozen at its last value).
        """
        previous_ticks = self.ticks
        live = [w for w in range(self.pool.size) if w not in self._lost]
        redo: List[int] = []
        for worker in live:
            fault = self._due_fault(worker, self.ticks)
            try:
                self._submit_advance(worker, until, fault)
            except WorkerCrash as exc:
                self._note_failure(worker, exc)
                redo.append(worker)
        outs: Dict[int, Tuple[List[LiveDecision], int]] = {}
        for worker in live:
            if worker in redo:
                recovered = self._recover_and_advance(worker, until)
                if recovered is not None:
                    outs[worker] = recovered
                continue
            try:
                out = self.pool.result(worker, self._recv_timeout)
                outs[worker] = (list(out[0]), int(out[1]))
            except (WorkerCrash, WorkerTimeout) as exc:
                self._note_failure(worker, exc)
                recovered = self._recover_and_advance(worker, until)
                if recovered is not None:
                    outs[worker] = recovered
        ticks = max(
            (out[1] for out in outs.values()), default=previous_ticks
        )
        self.ticks = max(self.ticks, ticks)
        self._live_now = until
        events: List[Tuple[int, int, int, LiveDecision]] = []
        for worker, (drained, _) in sorted(outs.items()):
            for sequence, item in enumerate(drained):
                events.append((int(item[0]), worker, sequence, item))
        for worker in sorted(self._lost):
            sequence = 0
            for tick in range(previous_ticks + 1, self.ticks + 1):
                for name, decision in self._synthesize(worker, tick):
                    events.append(
                        (
                            tick,
                            worker,
                            sequence,
                            (
                                tick,
                                name,
                                decision,
                                self._last_gate_p.get(name, 0.0),
                            ),
                        )
                    )
                    sequence += 1
        events.sort(key=lambda event: (event[0], event[1], event[2]))
        merged: List[Tuple[str, MonitorDecision, float]] = []
        for tick, worker, _, (_, name, decision, gate_p) in events:
            self._sync_version(tick)
            lost = worker in self._lost
            if not lost:
                self._last_decisions[name] = decision
                self._held_streaks[name] = 0
                self._last_gate_p[name] = float(gate_p)
            drifted = None if lost else self._observe_drift(name, decision)
            if self._publisher is not None:
                # lost shards: probability stays frozen at its last
                # published value (the synthesized gate_p may be a 0.0
                # placeholder when no real decision preceded the loss)
                self._publisher.update(
                    name,
                    decision,
                    None if lost else float(gate_p),
                    drifted=drifted,
                )
            if self.on_decision is not None:
                self.on_decision(name, decision)
            merged.append((name, decision, float(gate_p)))
        self._sync_version(self.ticks)
        if self._publisher is not None:
            self.snapshot = self._publisher.publish(
                self.ticks,
                tuple(self.lost_sites()),
                meter_version=self.meter_version,
            )
        return merged

    def detach(self) -> None:
        """Stop live sampling on every live shard."""
        self._call_live(_shard_detach, lambda worker: ())

    # ------------------------------------------------------------------
    # checkpoint / inspection
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> Path:
        """Write a ``"sharded"``-layout service checkpoint.

        Workers write their ``fleet.monitor.<i>.json`` files in
        parallel (each atomically); the parent merges their manifest
        fragments — gate, injector and watchdog states keyed by site,
        in global site order — and writes ``service.json`` last, so a
        reader never observes a manifest pointing at missing shards.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        fragments = self._call_live(
            _shard_save, lambda worker: (str(target), worker)
        )
        manifest: Dict[str, Any] = {
            "format": SERVICE_FORMAT,
            "layout": "sharded",
            "ticks": self.ticks,
            "meter_version": self.meter_version,
            "shards": [
                {"file": fragment["file"], "sites": fragment["sites"]}
                for _, fragment in sorted(fragments.items())
            ],
            "gates": {},
            "injectors": {},
            "watchdogs": {},
        }
        for _, fragment in sorted(fragments.items()):
            manifest["gates"].update(fragment["gates"])
            manifest["injectors"].update(fragment["injectors"])
            manifest["watchdogs"].update(fragment["watchdogs"])
        if self._lost:
            # recorded so a later resume can say *why* these sites have
            # no state, instead of a bare missing-gate error
            manifest["lost_sites"] = self.lost_sites()
        pending = self._pending_swap()
        if pending is not None:
            manifest["pending_swap"] = pending.to_manifest()
        if self.drift is not None:
            manifest["drift"] = self.drift.state_dict()
        write_json_atomic(target / "service.json", manifest)
        return target

    def sync(self) -> None:
        """Write stacked fold state back into every live shard's monitors."""
        self._call_live(_shard_sync, lambda worker: ())

    def gate_states(self) -> Dict[str, Dict[str, Any]]:
        """Live sites' gate ``state_dict``, in global site order."""
        merged: Dict[str, Dict[str, Any]] = {}
        for _, states in sorted(
            self._call_live(_shard_gate_states, lambda worker: ()).items()
        ):
            merged.update(states)
        return merged

    def monitor_states(self) -> Dict[str, Dict[str, Any]]:
        """Live sites' post-sync monitor state + coordinator tables."""
        merged: Dict[str, Dict[str, Any]] = {}
        for _, states in sorted(
            self._call_live(_shard_monitor_states, lambda worker: ()).items()
        ):
            merged.update(states)
        return merged

    def summary_rows(self) -> List[str]:
        """Per-site status blocks for live sites, in global site order."""
        rows: List[str] = []
        for _, shard_rows in sorted(
            self._call_live(_shard_summary, lambda worker: ()).items()
        ):
            rows.extend(shard_rows)
        return rows

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def merge_observability(self) -> int:
        """Fold every worker's metrics registry into the parent's.

        Counters and histograms sum, gauges are last-write-wins (in
        worker order).  Zero-cost when observability is disabled: no
        broadcast, no pipe traffic.  Returns merged sample count.
        """
        if not OBS.enabled:
            return 0
        merged = 0
        for _, lines in sorted(
            self._call_live(_shard_obs_lines, lambda worker: ()).items()
        ):
            if lines:
                merged += merge_snapshot(OBS.registry, lines)
        return merged

    def close(self) -> None:
        """Merge worker metrics, then stop the workers (idempotent).

        Also removes the supervisor's private recovery-checkpoint
        directory when it created one.
        """
        if self._closed:
            return
        try:
            self.merge_observability()
        finally:
            self._closed = True
            self.pool.close()
            if self._ckpt_owned and self._ckpt_root is not None:
                shutil.rmtree(self._ckpt_root, ignore_errors=True)

    def __enter__(self) -> "ShardedCapacityService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
