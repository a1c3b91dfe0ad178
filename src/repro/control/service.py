"""Multi-site capacity service: N monitored, gated websites, one loop.

The paper measures one website; a hosting platform runs many.
:class:`CapacityService` generalizes the closed loop to N independent
sites sharing one trained :class:`~repro.core.capacity.CapacityMeter`:
every site gets a *fresh clone* of the meter (its own speculative
history and online adaptation — clones are made through
:func:`~repro.faults.campaign.fresh_monitor`), its own
:class:`~repro.control.admission.AimdGate`, and optionally its own
:class:`~repro.faults.injector.FaultInjector` +
:class:`~repro.faults.watchdog.SamplerWatchdog`, so degraded-telemetry
scenarios replay per site exactly as ``repro faults`` replays them for
one.

Synopsis inference is *batched across sites*: when windows complete,
the service stacks the clean windows' attribute rows into one matrix
per tier synopsis and calls
:meth:`~repro.core.synopsis.PerformanceSynopsis.predict_batch` once —
valid because all clones share identical trained synopses (online
adaptation touches only the coordinator tables).  Degraded windows
always take the per-site quorum path.

Every service keeps its coordinator tables and PI moments in the
structure-of-arrays :class:`~repro.control.fleet.FleetState`.  How it
samples, folds and decides follows from its site count alone.  A
service of at least :data:`~repro.control.fleet.STACK_MIN_SITES` sites
folds each tick's deliveries for every stacked site in a few numpy
operations (in replay and live mode alike; live, its hpc-only sites are
sampled in one array pass whose rows fold without interval records)
and decides clean windows in one vectorized pass per flush wave;
degraded deliveries and schema-drifted sites drop to the per-site path
mid-stream.  A smaller service samples, folds and decides each site
through its own sampler and monitor, which costs less there.
Both paths produce the same state, so every decision is bit-identical
whichever one runs (pinned in ``tests/test_fleet.py``), and
``repro.obs`` only observes: it picks no path.

Checkpoint/resume reuses :mod:`repro.faults.checkpoint`: a service
manifest (format tag, tick count, gate states, and — since format v2 —
fault-injector and watchdog state, so resumed campaigns replay their
plans from where they stopped rather than from tick zero) plus one
fleet-sharded monitor file storing the shared meter template once.
All writes are atomic; per-site monitor files and v1 manifests are
still read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.capacity import CapacityMeter
from ..core.monitor import MonitorDecision, OnlineCapacityMonitor
from ..drift.detector import DriftConfig, DriftDetector
from ..drift.handle import MeterHandle, StagedSwap, next_window_boundary
from ..faults.campaign import fresh_monitor
from ..faults.checkpoint import (
    load_checkpoint,
    load_fleet_checkpoint,
    read_json_checkpoint,
    save_fleet_checkpoint,
    write_json_atomic,
)
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.watchdog import SamplerWatchdog
from ..obs import OBS
from ..simulator.engine import Simulator
from ..simulator.website import MultiTierWebsite
from ..telemetry.sampler import (
    HPC_LEVEL,
    FleetSampler,
    IntervalRecord,
    TelemetrySampler,
    WindowStats,
)
from ..telemetry.streaming import StreamingWindow
from .admission import AimdGate, GatedFrontEnd
from .fleet import FleetState
from .snapshot import FleetSnapshot, SnapshotPublisher

__all__ = [
    "SERVICE_FORMAT",
    "CapacityService",
    "SiteDecision",
    "SiteSpec",
]

#: current manifest format: v2 adds fault-injector / watchdog state and
#: the checkpoint layout tag ("per-site" or "fleet")
SERVICE_FORMAT = "repro.service-checkpoint/2"
SERVICE_FORMAT_V1 = "repro.service-checkpoint/1"

#: (site name, decision) pair emitted by :meth:`CapacityService.push`
SiteDecision = Tuple[str, MonitorDecision]


@dataclass(frozen=True)
class SiteSpec:
    """Configuration of one hosted website in a :class:`CapacityService`.

    ``plan`` optionally injects a deterministic fault schedule into this
    site's telemetry stream (the other sites stay clean); the gate knobs
    mirror :class:`~repro.control.admission.AimdGate`.

    ``seed`` is the site's *root* seed.  The AIMD gate's admission RNG
    and the live-mode sampler noise draw from independent
    ``SeedSequence`` substreams spawned off it — feeding one integer to
    both generators (the pre-fix behaviour) correlates admission
    coin-flips with telemetry noise, which is exactly the kind of
    coupling a capacity experiment must not carry.  Replay mode never
    draws from the gate RNG, so recorded-stream goldens are unaffected.
    """

    name: str
    seed: int = 0
    plan: Optional[FaultPlan] = None
    decrease_factor: float = 0.65
    increase_step: float = 0.05
    min_admission: float = 0.05
    confidence_floor: float = 0.75

    def seed_streams(self) -> Tuple[np.random.SeedSequence, int]:
        """(gate substream, sampler seed) derived from the root seed."""
        gate_stream, sampler_stream = np.random.SeedSequence(
            self.seed
        ).spawn(2)
        # samplers derive per-tier child seeds with integer arithmetic,
        # so they get a plain int drawn from their substream
        return gate_stream, int(sampler_stream.generate_state(1)[0])

    @property
    def sampler_seed(self) -> int:
        return self.seed_streams()[1]

    def make_gate(self) -> AimdGate:
        gate_stream, _ = self.seed_streams()
        return AimdGate(
            decrease_factor=self.decrease_factor,
            increase_step=self.increase_step,
            min_admission=self.min_admission,
            confidence_floor=self.confidence_floor,
            seed=gate_stream,
            site=self.name,
        )


class SiteRuntime:
    """One site's live pieces: monitor, gate, optional fault path."""

    def __init__(
        self,
        spec: SiteSpec,
        monitor: OnlineCapacityMonitor,
        gate: AimdGate,
        *,
        use_watchdog: bool = True,
        stall_ticks: int = 3,
    ) -> None:
        self.spec = spec
        self.monitor = monitor
        self.gate = gate
        #: position in the service's site list (fleet array row)
        self.index = 0
        #: windows folded this tick, awaiting the batched decide pass
        self.pending: List[StreamingWindow] = []
        #: deliveries queue here instead of folding at once: the service
        #: folds a whole tick's deliveries for every site together
        #: (``_fold_captured``) once they are all in — after the pushes
        #: in replay mode, in the flush timer in live mode
        self._capture: List[IntervalRecord] = []
        self.injector: Optional[FaultInjector] = None
        self.watchdog: Optional[SamplerWatchdog] = None
        if spec.plan is not None:
            self.injector = FaultInjector(spec.plan)
            self.injector.downstream = self._deliver
            if use_watchdog:
                self.watchdog = SamplerWatchdog(
                    monitor.meter.tiers,
                    self.injector.rearm,
                    stall_ticks=stall_ticks,
                )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def levels(self) -> FrozenSet[str]:
        """Concrete metric levels this site's monitor and fault plan read."""
        levels = self.monitor.levels
        if self.spec.plan is not None:
            levels |= self.spec.plan.levels
        return levels

    def offer(self, record: IntervalRecord) -> None:
        """Route one interval record through this site's fault path."""
        if self.injector is not None:
            self.injector.push(record)
        else:
            self._deliver(record)

    def _deliver(self, record: IntervalRecord) -> None:
        if self.watchdog is not None:
            self.watchdog.observe(record)
        self._capture.append(record)


class CapacityService:
    """N independent capacity-monitored websites behind AIMD gates.

    Drive it in replay mode (:meth:`push` / :meth:`replay` with
    recorded interval records — every site sees the same stream through
    its own fault plan) or live mode (:meth:`attach` with one simulator
    and per-site websites).  ``on_decision`` receives
    ``(site_name, decision)`` for every decided window, in deterministic
    site order.
    """

    def __init__(
        self,
        meter: CapacityMeter,
        sites: Sequence[SiteSpec],
        *,
        adapt: bool = False,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        min_votes: Optional[int] = None,
        max_imputed_fraction: float = 0.5,
        confidence_decay: float = 0.5,
        use_watchdog: bool = True,
        stall_ticks: int = 3,
        retain_decisions: Optional[int] = None,
        on_decision: Optional[Callable[[str, MonitorDecision], None]] = None,
    ) -> None:
        if not sites:
            raise ValueError("CapacityService needs at least one site")
        if labeler is None:
            labeler = meter.labeler
        self._init_base(on_decision=on_decision)
        payload = meter.to_payload()  # serialize once, clone N times
        for spec in sites:
            monitor = fresh_monitor(
                meter,
                labeler,
                adapt=adapt,
                min_votes=min_votes,
                max_imputed_fraction=max_imputed_fraction,
                confidence_decay=confidence_decay,
                payload=payload,
                retain_decisions=retain_decisions,
            )
            self._add_site(
                spec,
                monitor,
                spec.make_gate(),
                use_watchdog=use_watchdog,
                stall_ticks=stall_ticks,
            )
        self.handle = MeterHandle(meter)
        self._init_fleet()

    # ------------------------------------------------------------------
    # construction plumbing (shared with resume())
    # ------------------------------------------------------------------
    def _init_base(
        self,
        *,
        on_decision: Optional[Callable[[str, MonitorDecision], None]],
    ) -> None:
        self.sites: List[SiteRuntime] = []
        self.on_decision = on_decision
        self.ticks = 0
        self._samplers: List[TelemetrySampler] = []
        #: one pass over the hpc-only sites of a stacking service, run
        #: by the flush timer, and those sites in its row order
        self._fleet_sampler: Optional[FleetSampler] = None
        self._fleet_sampled: List[SiteRuntime] = []
        #: its rows of sites without and with a fault plan
        self._fleet_clean: List[int] = []
        self._fleet_faulty: List[int] = []
        self._flush_timer: Optional[Any] = None
        #: latest published FleetSnapshot; None until enable_snapshots()
        self.snapshot: Optional[FleetSnapshot] = None
        self._publisher: Optional[SnapshotPublisher] = None
        #: versioned meter indirection; hot-swaps install through it
        self.handle: MeterHandle = MeterHandle(meter=None)
        #: decision-path drift detector; None until enable_drift()
        self.drift: Optional[DriftDetector] = None
        # drift state carried by a resumed manifest, loaded lazily when
        # enable_drift() re-arms the detector
        self._drift_manifest_state: Optional[Dict[str, Any]] = None

    def _init_fleet(self) -> None:
        """Adopt all sites into the structure-of-arrays backend."""
        self.fleet = FleetState(
            [site.monitor for site in self.sites], handle=self.handle
        )

    def _add_site(
        self,
        spec: SiteSpec,
        monitor: OnlineCapacityMonitor,
        gate: AimdGate,
        *,
        use_watchdog: bool,
        stall_ticks: int,
    ) -> None:
        if any(site.name == spec.name for site in self.sites):
            raise ValueError(f"duplicate site name {spec.name!r}")
        runtime = SiteRuntime(
            spec,
            monitor,
            gate,
            use_watchdog=use_watchdog,
            stall_ticks=stall_ticks,
        )
        runtime.index = len(self.sites)
        self.sites.append(runtime)

    def site(self, name: str) -> SiteRuntime:
        """Look one site up by name."""
        for runtime in self.sites:
            if runtime.name == name:
                return runtime
        raise KeyError(f"no site named {name!r}")

    def enable_snapshots(self) -> FleetSnapshot:
        """Start publishing lock-free gate-state snapshots.

        After this, every flush ends by swapping a fresh immutable
        :class:`~repro.control.snapshot.FleetSnapshot` into
        ``self.snapshot`` (single reference assignment, atomic under
        the GIL) — the HTTP front end reads it from any thread without
        a lock.  Off by default: the plain replay/serve paths skip the
        publisher entirely.
        """
        self._publisher = SnapshotPublisher(
            {
                site.name: site.gate.admission_probability
                for site in self.sites
            }
        )
        self.snapshot = self._publisher.publish(
            self.ticks, meter_version=self.handle.version
        )
        return self.snapshot

    # ------------------------------------------------------------------
    # drift detection and meter hot-swap
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """The decision window length (ticks) all sites share."""
        return int(self.sites[0].monitor.meter.window)

    @property
    def meter_version(self) -> int:
        """The installed meter version (1 until the first hot-swap)."""
        return self.handle.version

    def enable_drift(
        self, config: Optional[DriftConfig] = None
    ) -> DriftDetector:
        """Put a drift detector on the decision path.

        Every decided window is folded into the detector before
        publication; resumed services restore the checkpointed detector
        state the manifest carried (same config expected), so a resumed
        campaign triggers on exactly the window the uninterrupted one
        would.
        """
        self.drift = DriftDetector(config)
        if self._drift_manifest_state is not None:
            self.drift.load_state(self._drift_manifest_state)
            self._drift_manifest_state = None
        return self.drift

    def swap_meter(
        self,
        meter: Union[CapacityMeter, Dict[str, Any]],
        *,
        version: Optional[int] = None,
    ) -> StagedSwap:
        """Stage a hot-swap to a retrained meter (or its payload).

        The swap installs at the next window boundary — immediately if
        the service is sitting on one — so no decision window ever
        mixes two meters' votes.  Returns the staged swap (its
        ``effective_tick`` tells the caller when it lands).
        """
        payload = (
            meter.to_payload()
            if isinstance(meter, CapacityMeter)
            else dict(meter)
        )
        if version is None:
            version = self.handle.next_version()
        swap = StagedSwap(
            version=version,
            effective_tick=next_window_boundary(self.ticks, self.window),
            payload=payload,
        )
        self.stage_swap(swap)
        return swap

    def stage_swap(self, swap: StagedSwap) -> None:
        """Stage a fully specified swap (sharded workers land here)."""
        self.handle.stage(swap)
        self._maybe_install_swap()

    def _maybe_install_swap(self) -> None:
        swap = self.handle.due(self.ticks)
        if swap is not None:
            self._install_swap(swap)

    def _install_swap(self, swap: StagedSwap) -> None:
        """Install a staged meter: one reference swap per monitor.

        Every site gets a fresh clone of the retrained meter (its own
        speculative history and online adaptation, exactly as at
        construction); run-local state — aggregators mid-window,
        counters, PI trackers, gates, fault plans — carries over
        untouched.  The fleet backend is rebuilt over the new tables,
        which mirrors what ``resume()`` does after restoring state, so
        a live swap is bit-identical to stop-retrain-restart.
        """
        # write stacked fold state into every monitor before the old
        # fleet's arrays are abandoned; the new fleet restacks each
        # site at its next window boundary
        self.fleet.sync()
        template: Optional[CapacityMeter] = None
        for site in self.sites:
            clone = CapacityMeter.from_payload(
                swap.payload, labeler=site.monitor.labeler
            )
            if template is None:
                template = CapacityMeter.from_payload(
                    swap.payload, labeler=site.monitor.labeler
                )
            site.monitor.swap_meter(clone)
        assert template is not None
        self.handle.install(template, swap.version)
        if self.drift is not None:
            self.drift.notify_swap()
        self._init_fleet()
        if OBS.enabled:
            OBS.inc(
                "repro_meter_swaps_total",
                help="Meter hot-swaps installed.",
            )
            OBS.set(
                "repro_meter_version",
                float(swap.version),
                help="Installed meter version.",
            )

    def _observe_drift(self, name: str, decision: MonitorDecision) -> Optional[bool]:
        """Fold one decision into the detector; returns the drift flag."""
        if self.drift is None:
            return None
        return self.drift.observe(name, decision).drifted

    # ------------------------------------------------------------------
    # replay mode
    # ------------------------------------------------------------------
    def push(self, record: IntervalRecord) -> List[SiteDecision]:
        """Offer one record to every site, then decide completed windows."""
        if self.handle.pending is not None:
            # staged swaps land between ticks, never inside one: the
            # boundary window has decided, the next hasn't folded yet
            self._maybe_install_swap()
        self.ticks += 1
        for site in self.sites:
            site.offer(record)
        self._fold_captured()
        return self._flush()

    def _fold_captured(self) -> None:
        """Fold the deliveries the sites captured since the last call.

        A stacking fleet folds them on the stack, timed by ``repro.obs``
        as one ``fleet_fold`` span; a smaller one folds each site's
        through its own monitor.
        """
        try:
            if self.fleet.stacks:
                t0 = OBS.clock() if OBS.enabled else None
                self._fold_tick_fleet()
                if t0 is not None:
                    OBS.observe_span("fleet_fold", OBS.clock() - t0)
                return
            for site in self.sites:
                for record in site._capture:
                    window = site.monitor.fold(record)
                    if window is not None:
                        site.pending.append(window)
        finally:
            for site in self.sites:
                if site._capture:
                    site._capture.clear()

    def _fold_tick_fleet(self) -> None:
        """Fold one tick's captured deliveries through the fleet.

        Fault paths may deliver 0, 1 or 2 records per site per tick
        (drops / duplicates), so deliveries are consumed position by
        position: at each position, sites holding *the same record
        object* (replayed records reach every injector-less site
        untouched) are grouped, and the fleet folds the whole position
        at once, gathering each distinct record object once.
        """
        position = 0
        while True:
            groups: Dict[int, Tuple[IntervalRecord, List[SiteRuntime]]] = {}
            for site in self.sites:
                capture = site._capture
                if position >= len(capture):
                    continue
                delivered = capture[position]
                entry = groups.get(id(delivered))
                if entry is None:
                    groups[id(delivered)] = (delivered, [site])
                else:
                    entry[1].append(site)
            if not groups:
                return
            self.fleet.fold_position(list(groups.values()))
            position += 1

    def replay(
        self, records: Sequence[IntervalRecord]
    ) -> List[SiteDecision]:
        """Replay a recorded stream through all sites."""
        decisions: List[SiteDecision] = []
        for record in records:
            decisions.extend(self.push(record))
        # leave every monitor individually readable (state_dict,
        # counters): stacked fold state goes back into each one
        self.fleet.sync()
        return decisions

    # ------------------------------------------------------------------
    # live mode
    # ------------------------------------------------------------------
    def attach(
        self,
        sim: Simulator,
        websites: Mapping[str, MultiTierWebsite],
        *,
        interval: float = 1.0,
        hpc_noise: float = 0.03,
        os_noise: float = 0.05,
    ) -> None:
        """Sample every site's website live, deciding windows per tick.

        A single flush timer folds each tick's deliveries for every site
        at once and drives the batched decide pass.  In a service that
        stacks (:attr:`FleetState.stacks`), the flush timer first samples
        every site that reads only hardware counters in one
        :class:`~repro.telemetry.sampler.FleetSampler` pass: a clean
        site's row folds straight onto the stack, and a site with a
        fault plan, or one not stacked at that tick, gets the interval
        record its own sampler would have built.  Every other site has
        its own sampler, streaming into its fault path; they are
        registered before the flush timer, so they run first at each
        shared timestamp.  Each sampler synthesizes only the metric
        levels its site reads (:attr:`SiteRuntime.levels`); meter swaps
        keep the level, so the set holds for the service's lifetime.
        """
        missing = [s.name for s in self.sites if s.name not in websites]
        if missing:
            raise ValueError(f"no website for sites {missing}")
        fleet_sampled: List[SiteRuntime] = []
        if self.fleet.stacks:
            hpc_only = frozenset((HPC_LEVEL,))
            candidates = [site for site in self.sites if site.levels == hpc_only]
            if candidates:
                tiers = tuple(websites[candidates[0].name].tiers)
                fleet_sampled = [
                    site
                    for site in candidates
                    if tuple(websites[site.name].tiers) == tiers
                ]
        if fleet_sampled:
            self._fleet_sampler = FleetSampler(
                [websites[site.name] for site in fleet_sampled],
                [site.spec.sampler_seed for site in fleet_sampled],
                hpc_noise=hpc_noise,
            )
            self._fleet_sampled = fleet_sampled
            for row, site in enumerate(fleet_sampled):
                if site.injector is None:
                    self._fleet_clean.append(row)
                else:
                    self._fleet_faulty.append(row)
        own = set(map(id, fleet_sampled))
        for site in self.sites:
            if id(site) in own:
                continue
            self._samplers.append(
                TelemetrySampler(
                    sim,
                    websites[site.name],
                    workload=f"serve-{site.name}",
                    interval=interval,
                    hpc_noise=hpc_noise,
                    os_noise=os_noise,
                    seed=site.spec.sampler_seed,
                    on_record=site.offer,
                    retain=0,
                    levels=site.levels,
                )
            )
        self._flush_timer = sim.every(interval, self._on_tick)

    def front_end(
        self, sim: Simulator, name: str, website: MultiTierWebsite
    ) -> GatedFrontEnd:
        """A website-shaped submit gate bound to ``name``'s AIMD gate."""
        return GatedFrontEnd(sim, self.site(name).gate, website)

    def stop(self) -> None:
        """Stop live sampling and the flush timer.

        Every monitor is left individually readable (``state_dict``,
        counters): stacked fold state goes back into each one.
        """
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        for sampler in self._samplers:
            sampler.stop()
        self._samplers = []
        self._fleet_sampler = None
        self._fleet_sampled = []
        self._fleet_clean = []
        self._fleet_faulty = []
        self.fleet.sync()

    def _on_tick(self) -> None:
        if self._fleet_sampler is not None:
            self._sample_fleet(self._fleet_sampler)
        self._fold_captured()
        if self.handle.pending is not None:
            # folds never touch the coordinator, so installing before
            # this tick's flush (but after the boundary tick's) keeps
            # live mode window-aligned with replay mode
            self._maybe_install_swap()
        self.ticks += 1
        self._flush()

    def _sample_fleet(self, sampler: FleetSampler) -> None:
        """One fleet sampler pass, timed as one ``fleet_sample`` span.

        The rows of clean sites fold onto the current fleet's stack.  A
        site with a fault plan, and one the stack does not take at this
        tick, is offered the record built from its row, as its own
        sampler would have offered it.
        """
        t0 = OBS.clock() if OBS.enabled else None
        tick = sampler.sample()
        sites = self._fleet_sampled
        clean = self._fleet_clean
        if tick.odd:
            odd = set(tick.odd)
            clean = [row for row in clean if row not in odd]
        rest = self.fleet.fold_sampled(tick, clean, sites)
        for row in sorted(set(rest).union(self._fleet_faulty, tick.odd)):
            sites[row].offer(tick.record(row))
        if t0 is not None:
            OBS.inc(
                "repro_sampler_ticks_total",
                len(sites),
                help="sampling intervals collected across all tiers",
            )
            OBS.observe_span("fleet_sample", OBS.clock() - t0)

    # ------------------------------------------------------------------
    # the batched decide pass
    # ------------------------------------------------------------------
    def _flush(self) -> List[SiteDecision]:
        """Decide every window folded since the last flush.

        A site can complete more than one window per flush (duplicate
        faults), so the pending list is split into *waves* — wave k
        holds each site's k-th window — guaranteeing unique site rows
        per vectorized :meth:`~repro.control.fleet.FleetState.decide_clean`
        call.  Within a wave, clean windows decide with their batched
        votes: on the stack when the fleet stacks, else through each
        site's own monitor; degraded windows take the per-site quorum
        path on the same shared tables.  Gates move per wave via
        :meth:`~repro.control.admission.AimdGate.update_many`, and the
        final emission loop keeps the canonical ``(site order, window
        order)`` sequence.  A flush of a single wave that decides per
        site emits each decision as soon as it is made: the site's gate
        moves right after its own decide, then its decision goes to
        drift, the publisher and ``on_decision``, in the same order.
        """
        pending: List[Tuple[SiteRuntime, StreamingWindow]] = []
        for site in self.sites:
            for window in site.pending:
                pending.append((site, window))
            site.pending = []
        if not pending:
            return []
        votes = self._pending_votes(pending)
        waves: List[List[int]] = []
        seen: Dict[int, int] = {}
        for k, (site, _) in enumerate(pending):
            occurrence = seen.get(site.index, 0)
            seen[site.index] = occurrence + 1
            if occurrence == len(waves):
                waves.append([])
            waves[occurrence].append(k)
        decisions: List[SiteDecision] = []
        if len(waves) == 1 and not self.fleet.stacks:
            for (site, window), site_votes in zip(pending, votes):
                decision = site.monitor.decide(window, votes=site_votes)
                site.gate.update(decision)
                self._emit(site, decision, decisions)
            self._publish()
            return decisions
        decided: List[Optional[MonitorDecision]] = [None] * len(pending)
        for wave in waves:
            clean = [k for k in wave if votes[k] is not None]
            if clean and self.fleet.stacks:
                fleet_decisions = self.fleet.decide_clean(
                    [
                        (
                            pending[k][0].index,
                            pending[k][0].monitor,
                            pending[k][1],
                            votes[k],
                        )
                        for k in clean
                    ]
                )
                for k, decision in zip(clean, fleet_decisions):
                    decided[k] = decision
            else:
                for k in clean:
                    site, window = pending[k]
                    decided[k] = site.monitor.decide(window, votes=votes[k])
            for k in wave:
                if votes[k] is None:
                    site, window = pending[k]
                    decided[k] = site.monitor.decide(window)
            AimdGate.update_many(
                [pending[k][0].gate for k in wave],
                [decided[k] for k in wave],
            )
        for (site, _), decision in zip(pending, decided):
            assert decision is not None
            self._emit(site, decision, decisions)
        self._publish()
        return decisions

    def _emit(
        self,
        site: SiteRuntime,
        decision: MonitorDecision,
        decisions: List[SiteDecision],
    ) -> None:
        """Hand one decision to drift, the publisher and ``on_decision``."""
        drifted = self._observe_drift(site.name, decision)
        if self._publisher is not None:
            self._publisher.update(
                site.name,
                decision,
                site.gate.admission_probability,
                drifted=drifted,
            )
        if self.on_decision is not None:
            self.on_decision(site.name, decision)
        decisions.append((site.name, decision))

    def _publish(self) -> None:
        if self._publisher is not None:
            self.snapshot = self._publisher.publish(
                self.ticks, meter_version=self.handle.version
            )

    def _pending_votes(
        self, pending: Sequence[Tuple[SiteRuntime, StreamingWindow]]
    ) -> List[Optional[Tuple[int, ...]]]:
        """Batched synopsis votes per pending window; None if degraded.

        A window the fleet shares appears once per site: its
        eligibility and votes are pure functions of the window, so they
        are computed once per distinct object.
        """
        votes: List[Optional[Tuple[int, ...]]] = [None] * len(pending)
        eligibility: Dict[int, bool] = {}
        eligible: List[int] = []
        for i, (_, window) in enumerate(pending):
            flag = eligibility.get(id(window))
            if flag is None:
                flag = eligibility[id(window)] = self._batch_eligible(window)
            if flag:
                eligible.append(i)
        if eligible:
            unique: List[StreamingWindow] = []
            slot: Dict[int, int] = {}
            for i in eligible:
                key = id(pending[i][1])
                if key not in slot:
                    slot[key] = len(unique)
                    unique.append(pending[i][1])
            batched = self._batched_votes(unique)
            for i in eligible:
                votes[i] = batched[slot[id(pending[i][1])]]
        return votes

    @property
    def _synopses(self) -> List[Any]:
        # all clones carry identical trained synopses; the first site's
        # serve as the batch schema and model
        return list(self.sites[0].monitor.meter.coordinator.synopses)

    def _batch_eligible(self, window: StreamingWindow) -> bool:
        """Clean windows only: complete coverage, every attribute present.

        Anything else must go through the per-site
        :meth:`~repro.core.coordinator.CoordinatedPredictor.predict_degraded`
        quorum path, which owns imputation and abstention.
        """
        quality = window.quality
        if quality is not None and not quality.complete:
            return False
        for synopsis in self._synopses:
            tier_metrics = window.metrics.get(synopsis.tier)
            if tier_metrics is None:
                return False
            for attribute in synopsis.attributes:
                if attribute not in tier_metrics:
                    return False
        return True

    def _batched_votes(
        self, windows: Sequence[StreamingWindow]
    ) -> List[Tuple[int, ...]]:
        """One ``predict_batch`` call per synopsis over all windows."""
        synopses = self._synopses
        per_synopsis: List[np.ndarray] = []
        for synopsis in synopses:
            matrix = np.array(
                [
                    [
                        window.metrics[synopsis.tier][attribute]
                        for attribute in synopsis.attributes
                    ]
                    for window in windows
                ],
                dtype=float,
            )
            per_synopsis.append(synopsis.predict_batch(matrix))
        return [
            tuple(int(per_synopsis[j][i]) for j in range(len(synopses)))
            for i in range(len(windows))
        ]

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> Path:
        """Checkpoint every site's monitor plus the gate manifest.

        Layout: monitor state in one fleet-sharded
        ``<dir>/fleet.monitor.json`` storing the shared meter template
        once, plus ``<dir>/service.json`` (format tag, checkpoint
        layout, tick count, per-site gate states, and the run-local
        state of every fault injector and watchdog, so resumed
        campaigns pick their fault plans up mid-stream instead of
        replaying them from tick zero).  All writes are atomic.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        # checkpoints read each monitor's own state: write the stacked
        # fold state back before serializing
        self.fleet.sync()
        save_fleet_checkpoint(
            [(site.name, site.monitor) for site in self.sites],
            target / "fleet.monitor.json",
        )
        manifest: Dict[str, object] = {
            "format": SERVICE_FORMAT,
            "layout": "fleet",
            "ticks": self.ticks,
            "meter_version": self.handle.version,
            "gates": {
                site.name: site.gate.state_dict() for site in self.sites
            },
            "injectors": {
                site.name: site.injector.state_dict()
                for site in self.sites
                if site.injector is not None
            },
            "watchdogs": {
                site.name: site.watchdog.state_dict()
                for site in self.sites
                if site.watchdog is not None
            },
        }
        if self.handle.pending is not None:
            manifest["pending_swap"] = self.handle.pending.to_manifest()
        if self.drift is not None:
            manifest["drift"] = self.drift.state_dict()
        write_json_atomic(target / "service.json", manifest)
        return target

    @classmethod
    def resume(
        cls,
        directory: Union[str, Path],
        sites: Sequence[SiteSpec],
        *,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        use_watchdog: bool = True,
        stall_ticks: int = 3,
        allow_subset: bool = False,
        retain_decisions: Optional[int] = None,
        on_decision: Optional[Callable[[str, MonitorDecision], None]] = None,
        meter: Optional[Union[CapacityMeter, Dict[str, Any]]] = None,
    ) -> "CapacityService":
        """Rebuild a service exactly where :meth:`save` left it.

        ``sites`` re-supplies the process-local spec objects (fault
        plans and gate knobs don't round-trip through the manifest);
        every spec must have monitor state in ``directory``, and —
        unless ``allow_subset=True`` — every checkpointed site must
        appear in ``sites``: a site silently dropped from a resumed
        fleet is almost always an operator mistake, so orphaned
        checkpoint state raises :class:`ValueError` naming the sites.
        Monitors resume bit-identically (meter payload + run-local
        state); gates resume probability, counters and RNG state; and —
        for format-v2 checkpoints — fault injectors and watchdogs
        resume their plan cursors, stall maps, RNG streams and backoff
        schedules, so the resumed faulted stream continues exactly
        where the saved one stopped.  v1 checkpoints (no injector /
        watchdog state, always per-site layout) are still read; their
        injectors restart from the resumed stream's first tick as
        before.

        ``meter`` stages a hot-swap to a retrained meter immediately
        after the restore — the stop-retrain-restart form of a live
        :meth:`swap_meter`, and bit-identical to it when the checkpoint
        sits on a window boundary.  A swap the saved service had staged
        but not yet installed (``pending_swap`` in a v2+ manifest) is
        re-staged automatically; an explicit ``meter`` supersedes it.
        """
        target = Path(directory)
        manifest = read_json_checkpoint(target / "service.json")
        if manifest.get("format") not in (SERVICE_FORMAT, SERVICE_FORMAT_V1):
            raise ValueError(f"{target} is not a service checkpoint")
        service = cls.__new__(cls)
        service._init_base(on_decision=on_decision)
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
        layout = manifest.get("layout", "per-site")
        fleet_monitors: Dict[str, OnlineCapacityMonitor] = {}
        if layout == "fleet":
            fleet_monitors = dict(
                load_fleet_checkpoint(
                    target / "fleet.monitor.json",
                    labeler=labeler,
                    retain_decisions=retain_decisions,
                )
            )
        elif layout == "sharded":
            # one fleet-sharded monitor file per save-time worker; load
            # only the shards that hold supplied sites, and only those
            # sites from each (a resharded resume pays for its own
            # slice, not the whole checkpointed fleet)
            for shard in manifest.get("shards", []):
                wanted = supplied & set(shard["sites"])
                if not wanted:
                    continue
                fleet_monitors.update(
                    load_fleet_checkpoint(
                        target / str(shard["file"]),
                        labeler=labeler,
                        retain_decisions=retain_decisions,
                        sites=wanted,
                    )
                )
        injector_states = manifest.get("injectors", {})
        watchdog_states = manifest.get("watchdogs", {})
        for spec in sites:
            if layout in ("fleet", "sharded"):
                if spec.name not in fleet_monitors:
                    raise ValueError(
                        f"fleet checkpoint has no monitor for site "
                        f"{spec.name!r}"
                    )
                monitor = fleet_monitors[spec.name]
            else:
                monitor = load_checkpoint(
                    target / f"{spec.name}.monitor.json",
                    labeler=labeler,
                    retain_decisions=retain_decisions,
                )
            gate = spec.make_gate()
            gate.load_state(gate_states[spec.name])
            service._add_site(
                spec,
                monitor,
                gate,
                use_watchdog=use_watchdog,
                stall_ticks=stall_ticks,
            )
            runtime = service.sites[-1]
            if runtime.injector is not None and spec.name in injector_states:
                runtime.injector.load_state(injector_states[spec.name])
            if runtime.watchdog is not None and spec.name in watchdog_states:
                runtime.watchdog.load_state(watchdog_states[spec.name])
        if not service.sites:
            raise ValueError("CapacityService needs at least one site")
        service.ticks = int(manifest["ticks"])
        service.handle = MeterHandle(
            service.sites[0].monitor.meter,
            version=int(manifest.get("meter_version", 1)),
        )
        raw_drift = manifest.get("drift")
        if raw_drift is not None:
            service._drift_manifest_state = dict(raw_drift)
        service._init_fleet()
        raw_pending = manifest.get("pending_swap")
        if raw_pending is not None and meter is None:
            service.stage_swap(StagedSwap.from_manifest(dict(raw_pending)))
        if meter is not None:
            service.swap_meter(meter)
        return service

    # ------------------------------------------------------------------
    def summary_rows(self) -> List[str]:
        """One compact status block per site."""
        rows: List[str] = []
        for site in self.sites:
            counters = site.monitor.counters
            scores = site.monitor.scores()
            stats = site.gate.stats
            rows.append(
                f"site {site.name}: {counters.windows} windows, "
                f"BA {scores['overload_ba']:.3f}, "
                f"{counters.degraded_windows} degraded "
                f"({counters.held_decisions} held)"
            )
            rows.append(
                f"  gate: p={site.gate.admission_probability:.2f}, "
                f"{stats.admitted}/{stats.offered} admitted, "
                f"{stats.overload_signals} overload signals, "
                f"{stats.low_confidence_holds} low-confidence holds"
            )
        return rows
