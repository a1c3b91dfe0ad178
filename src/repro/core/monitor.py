"""Online capacity monitoring — the paper's measurement loop, live.

:class:`OnlineCapacityMonitor` wires the full online path together:
sampler ticks → :class:`~repro.telemetry.streaming.StreamingWindowAggregator`
→ per-tier synopsis votes → :meth:`CoordinatedPredictor.predict`
→ ground-truth feedback via :meth:`observe` (optionally with
``adapt=True`` for continuous online learning) → incremental
Productivity-Index tracking (Welford-style Pearson correlation against
throughput, Equation 2).  Memory is O(window): no interval history is
retained beyond the current window's accumulators and whatever bounded
debugging tail the caller asks for.

The monitor's per-window decisions are bit-for-bit identical to the
offline pipeline (:func:`~repro.core.capacity.build_coordinated_instances`
followed by :meth:`CoordinatedPredictor.evaluate`) on the same records,
because the streaming aggregator reproduces the batch window arithmetic
exactly and the same predict/observe sequence runs underneath.

Degraded telemetry never silences the monitor.  The aggregator runs in
lenient mode, so records with missing tiers or dropped counters flow
through the dropout path instead of raising; per-window quality flags
drive imputation/abstention inside
:meth:`~repro.core.coordinator.CoordinatedPredictor.predict_degraded`;
and when even the vote quorum fails, the monitor emits a *held*
decision — the last real decision with geometrically decaying
confidence — so every window produces exactly one decision, flagged in
:class:`MonitorCounters`.  A clean stream takes the exact historical
code path, bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import OBS
from ..simulator.engine import Simulator
from ..simulator.website import MultiTierWebsite
from ..telemetry.dataset import OVERLOAD, UNDERLOAD
from ..telemetry.sampler import (
    IntervalRecord,
    TelemetrySampler,
    WindowStats,
    concrete_levels,
)
from ..telemetry.streaming import (
    RunningCorrelation,
    StreamingWindow,
    StreamingWindowAggregator,
    WindowQuality,
)
from .capacity import CapacityMeter
from .coordinator import CoordinatedPrediction, Scheme
from .pi import DEFAULT_PI_CANDIDATES, PiDefinition

__all__ = ["MonitorDecision", "MonitorCounters", "OnlineCapacityMonitor"]


def _prediction_to_dict(
    prediction: Optional[CoordinatedPrediction],
) -> Optional[dict]:
    if prediction is None:
        return None
    return {
        "state": prediction.state,
        "bottleneck": prediction.bottleneck,
        "gpv": prediction.gpv,
        "hc": prediction.hc,
        "confident": prediction.confident,
        "synopsis_votes": list(prediction.synopsis_votes),
        "degraded": prediction.degraded,
        "abstained": list(prediction.abstained),
        "imputed_attributes": prediction.imputed_attributes,
    }


def _prediction_from_dict(
    payload: Optional[dict],
) -> Optional[CoordinatedPrediction]:
    if payload is None:
        return None
    return CoordinatedPrediction(
        state=int(payload["state"]),
        bottleneck=payload["bottleneck"],
        gpv=int(payload["gpv"]),
        hc=float(payload["hc"]),
        confident=bool(payload["confident"]),
        synopsis_votes=tuple(int(v) for v in payload["synopsis_votes"]),
        degraded=bool(payload["degraded"]),
        abstained=tuple(int(i) for i in payload["abstained"]),
        imputed_attributes=int(payload["imputed_attributes"]),
    )


@dataclass(frozen=True)
class MonitorDecision:
    """One decision window's record: prediction, truth and window state.

    ``held`` marks a window where telemetry was too degraded for a vote
    quorum and the previous decision was re-emitted with decayed
    confidence; ``quality`` carries the window's telemetry completeness
    (``None`` only for pre-fault-era producers).
    """

    index: int
    t_start: float
    t_end: float
    prediction: CoordinatedPrediction
    truth: int
    truth_bottleneck: Optional[str]
    stats: WindowStats
    held: bool = False
    quality: Optional[WindowQuality] = None

    @property
    def correct(self) -> bool:
        return self.prediction.state == self.truth

    @property
    def degraded(self) -> bool:
        """Was this decision made from incomplete telemetry?

        True when the vote was held/imputed/abstained *or* when the
        window's cells were only partially measured — even if enough
        samples survived for every synopsis to vote concretely.
        """
        return (
            self.held
            or self.prediction.degraded
            or (self.quality is not None and self.quality.degraded)
        )

    @property
    def confidence(self) -> float:
        """Telemetry confidence of this decision in [0, 1].

        The fraction of synopses that cast a *concrete* vote: 1.0 for a
        clean (or merely imputed) window, lower when votes had to be
        substituted, and 0.0 for a held decision, where no synopsis
        voted at all.  This is deliberately distinct from the
        predictor's statistical ``confident`` flag (Hc vs. δ): a
        fallback-scheme decision over pristine telemetry still carries
        full telemetry confidence, so clean-stream consumers behave
        exactly as they did before degraded-mode support existed.
        """
        prediction = self.prediction
        total = len(prediction.synopsis_votes) or len(prediction.abstained)
        if total == 0:
            return 0.0 if self.held else 1.0
        return (total - len(prediction.abstained)) / total


@dataclass
class MonitorCounters:
    """Running operational counters of the online loop."""

    ticks: int = 0
    windows: int = 0
    confident_windows: int = 0
    fallback_scheme_uses: int = 0
    adaptation_steps: int = 0
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    bottleneck_windows: int = 0
    bottleneck_correct: int = 0
    #: ticks whose record lacked at least one configured tier's metrics
    partial_ticks: int = 0
    #: PI tracker updates skipped because the metrics were missing
    pi_skipped_updates: int = 0
    #: windows decided from incomplete telemetry (imputed or abstained)
    degraded_windows: int = 0
    #: synopsis abstentions summed over all degraded windows
    abstained_votes: int = 0
    #: attribute values imputed from training marginals, summed
    imputed_attributes: int = 0
    #: quorum failures answered by holding the last decision
    held_decisions: int = 0

    @property
    def confident_fraction(self) -> float:
        return self.confident_windows / self.windows if self.windows else 0.0

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_windows / self.windows if self.windows else 0.0


class OnlineCapacityMonitor:
    """Streaming overload/bottleneck monitor over a trained meter.

    Feed it interval records one at a time with :meth:`push` (or attach
    it to a live simulation with :meth:`attach`); every ``window``-th
    tick it makes a coordinated decision, scores it against the
    labeler's ground truth, and optionally adapts the predictor online.

    ``retain_decisions`` bounds the kept decision tail (``None`` keeps
    all — fine for tests, unbounded for production monitoring; pass a
    small number there).  ``on_decision`` delivers every decision to a
    consumer regardless of retention.

    Degraded-mode knobs: ``min_votes`` is the synopsis-vote quorum
    (default: strict majority), ``max_imputed_fraction`` bounds how much
    of a synopsis' attribute set may be imputed from training marginals
    before it abstains, and ``confidence_decay`` is the per-window
    geometric decay applied to a held decision's counter value while
    quorum stays lost.
    """

    def __init__(
        self,
        meter: CapacityMeter,
        *,
        adapt: bool = False,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        track_pi: bool = True,
        pi_candidates: Sequence[Tuple[str, str]] = DEFAULT_PI_CANDIDATES,
        retain_decisions: Optional[int] = None,
        retain_records: int = 0,
        on_decision: Optional[Callable[[MonitorDecision], None]] = None,
        min_votes: Optional[int] = None,
        max_imputed_fraction: float = 0.5,
        confidence_decay: float = 0.5,
    ):
        if not meter.is_trained:
            raise ValueError("OnlineCapacityMonitor needs a trained meter")
        if not 0.0 <= confidence_decay <= 1.0:
            raise ValueError("confidence_decay must be in [0, 1]")
        if not 0.0 <= max_imputed_fraction <= 1.0:
            raise ValueError("max_imputed_fraction must be in [0, 1]")
        self.meter = meter
        self.adapt = adapt
        self.labeler = labeler if labeler is not None else meter.labeler
        self.on_decision = on_decision
        self.min_votes = min_votes
        self.max_imputed_fraction = max_imputed_fraction
        self.confidence_decay = confidence_decay
        self.aggregator = StreamingWindowAggregator(
            level=meter.level,
            tiers=meter.tiers,
            window=meter.window,
            retain_records=retain_records,
            lenient=True,
        )
        self.counters = MonitorCounters()
        self.decisions: Deque[MonitorDecision] = deque(maxlen=retain_decisions)
        #: incremental Corr(PI, throughput) per candidate definition,
        #: updated every tick (the paper's 1 s PI sampling granularity)
        self._pi_trackers: Dict[PiDefinition, RunningCorrelation] = {}
        if track_pi:
            for tier in meter.tiers:
                for yield_metric, cost_metric in pi_candidates:
                    definition = PiDefinition(tier, yield_metric, cost_metric)
                    self._pi_trackers[definition] = RunningCorrelation()
        # cached metric handles, valid while OBS.registry is the same
        # object (transient; excluded from checkpoint state)
        self._obs_cache: Optional[tuple] = None
        # hold-last-decision fallback state (quorum failures)
        self._held_streak = 0
        self._last_prediction: Optional[CoordinatedPrediction] = None
        # the same clean-history start the offline evaluate() performs
        self.meter.coordinator.reset_history()

    # ------------------------------------------------------------------
    @property
    def levels(self) -> FrozenSet[str]:
        """The concrete metric levels this monitor reads from a record.

        The meter's level (hybrid reads both ``hpc`` and ``os``) plus
        the level of every tracked PI definition.  A live sampler
        feeding this monitor needs to synthesize nothing else.
        """
        levels = set(concrete_levels(self.meter.level))
        for definition in self._pi_trackers:
            levels.update(concrete_levels(definition.level))
        return frozenset(levels)

    def attach(
        self,
        sim: Simulator,
        website: MultiTierWebsite,
        *,
        workload: str = "",
        interval: float = 1.0,
        hpc_noise: float = 0.03,
        os_noise: float = 0.05,
        seed: int = 0,
        retain: int = 0,
    ) -> TelemetrySampler:
        """Create a sampler that streams straight into this monitor.

        The returned sampler keeps only ``retain`` raw records in its
        run (default none) — the run object is a stub, not a log; the
        monitor is the consumer.  It synthesizes only the :attr:`levels`
        the monitor reads.
        """
        return TelemetrySampler(
            sim,
            website,
            workload=workload,
            interval=interval,
            hpc_noise=hpc_noise,
            os_noise=os_noise,
            seed=seed,
            on_record=self.push,
            retain=retain,
            levels=self.levels,
        )

    # ------------------------------------------------------------------
    def push(self, record: IntervalRecord) -> Optional[MonitorDecision]:
        """Fold one 1 s record; returns the decision on window completion."""
        window = self.fold(record)
        if window is None:
            return None
        return self.decide(window)

    def fold(self, record: IntervalRecord) -> Optional[StreamingWindow]:
        """Fold one record without deciding; returns a completed window.

        :meth:`push` is ``fold`` + :meth:`decide`.  Callers that batch
        inference across several monitors (the multi-site
        :class:`~repro.control.service.CapacityService`) fold every
        site's record first, compute synopsis votes for all completed
        windows in one vectorized pass, and then hand each window back
        to its own monitor's :meth:`decide`.
        """
        self.counters.ticks += 1
        partial = False
        for definition, tracker in self._pi_trackers.items():
            try:
                metrics = record.metrics(definition.level, definition.tier)
                value = definition.value(metrics)
            except KeyError:
                # dropped tier or counter: the PI sample is unmeasurable
                self.counters.pi_skipped_updates += 1
                partial = True
                continue
            tracker.update(value, record.website.client.throughput)
        if not partial:
            for tier in self.meter.tiers:
                try:
                    record.metrics(self.meter.level, tier)
                except KeyError:
                    partial = True
                    break
        if partial:
            self.counters.partial_ticks += 1
        return self.aggregator.push(record)

    def _held_prediction(self) -> CoordinatedPrediction:
        """The quorum-failure fallback: last decision, decayed.

        With no prior decision at all, fall back to the coordinator's
        configured scheme (optimistic → underload), exactly what λ does
        inside its confidence band.
        """
        coordinator = self.meter.coordinator
        everyone = tuple(range(coordinator.n_synopses))
        last = self._last_prediction
        if last is None:
            state = (
                UNDERLOAD
                if coordinator.scheme is Scheme.OPTIMISTIC
                else OVERLOAD
            )
            return CoordinatedPrediction(
                state=state,
                bottleneck=None,
                gpv=0,
                hc=0.0,
                confident=False,
                synopsis_votes=(),
                degraded=True,
                abstained=everyone,
            )
        decay = self.confidence_decay ** (self._held_streak + 1)
        return CoordinatedPrediction(
            state=last.state,
            bottleneck=last.bottleneck,
            gpv=last.gpv,
            hc=last.hc * decay,
            confident=False,
            synopsis_votes=(),
            degraded=True,
            abstained=everyone,
        )

    def decide(
        self,
        window: StreamingWindow,
        *,
        votes: Optional[Tuple[int, ...]] = None,
    ) -> MonitorDecision:
        """Turn one completed window into a scored decision.

        ``votes`` optionally supplies precomputed synopsis votes for a
        *complete* window (the batched multi-site fast path); they must
        be exactly the votes the synopses would cast on
        ``window.metrics``, so the decision is bit-identical to the
        unbatched path.  Degraded windows must leave ``votes`` unset.
        """
        t0 = OBS.clock() if OBS.enabled else None
        coordinator = self.meter.coordinator
        if votes is not None:
            prediction: Optional[CoordinatedPrediction] = (
                coordinator.predict_votes(votes)
            )
        else:
            prediction = coordinator.predict_degraded(
                window.metrics,
                min_votes=self.min_votes,
                max_imputed_fraction=self.max_imputed_fraction,
            )
        held = prediction is None
        if held:
            prediction = self._held_prediction()
        truth = self.labeler(window.stats)
        truth_bottleneck = window.stats.bottleneck if truth == OVERLOAD else None
        if held:
            # no predict() ran underneath: the history registers were
            # never speculated on, so there is nothing to observe/repair
            self._held_streak += 1
        else:
            coordinator.observe(
                truth,
                bottleneck=truth_bottleneck if self.adapt else None,
                adapt=self.adapt,
            )
            self._held_streak = 0
            self._last_prediction = prediction
        counters = self.counters
        counters.windows += 1
        if prediction.confident:
            counters.confident_windows += 1
        else:
            counters.fallback_scheme_uses += 1
        quality_degraded = window.quality is not None and window.quality.degraded
        if held or prediction.degraded or quality_degraded:
            counters.degraded_windows += 1
        if prediction.degraded:
            counters.abstained_votes += len(prediction.abstained)
            counters.imputed_attributes += prediction.imputed_attributes
        if held:
            counters.held_decisions += 1
        if self.adapt and not held:
            counters.adaptation_steps += 1
        if truth == OVERLOAD:
            if prediction.overloaded:
                counters.tp += 1
            else:
                counters.fn += 1
            if truth_bottleneck is not None:
                counters.bottleneck_windows += 1
                if coordinator.bpt_vote(prediction.gpv) == truth_bottleneck:
                    counters.bottleneck_correct += 1
        else:
            if prediction.overloaded:
                counters.fp += 1
            else:
                counters.tn += 1
        decision = MonitorDecision(
            index=window.index,
            t_start=window.stats.t_start,
            t_end=window.stats.t_end,
            prediction=prediction,
            truth=truth,
            truth_bottleneck=truth_bottleneck,
            stats=window.stats,
            held=held,
            quality=window.quality,
        )
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(decision)
        if t0 is not None:
            cache = self._obs_cache
            if cache is None or cache[0] is not OBS.registry:
                registry = OBS.registry
                cache = self._obs_cache = (
                    registry,
                    registry.counter(
                        "repro_monitor_windows_total",
                        help="decision windows completed by online monitors",
                    ),
                    registry.counter(
                        "repro_monitor_ticks_total",
                        help="interval records folded by online monitors",
                    ),
                    registry.counter(
                        "repro_monitor_held_decisions_total",
                        help="quorum failures answered by holding the "
                        "last decision",
                    ),
                    registry.counter(
                        "repro_monitor_degraded_windows_total",
                        help="windows decided from incomplete telemetry",
                    ),
                    registry.gauge(
                        "repro_monitor_overload_ba",
                        help="running overload balanced accuracy of the "
                        "monitor",
                    ),
                )
            cache[1].inc()
            # per-record ticks flush here, once per completed window,
            # keeping push() itself free of metric operations
            cache[2].inc(self.meter.window)
            if held:
                cache[3].inc()
            if decision.degraded:
                cache[4].inc()
            c = self.counters
            tpr = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 1.0
            tnr = c.tn / (c.tn + c.fp) if (c.tn + c.fp) else 1.0
            cache[5].set(0.5 * (tpr + tnr))
            OBS.observe_span("monitor_decide", OBS.clock() - t0)
        return decision

    def finish_fleet_decision(
        self,
        window: StreamingWindow,
        prediction: CoordinatedPrediction,
        truth: int,
        truth_bottleneck: Optional[str],
    ) -> MonitorDecision:
        """Bookkeeping half of :meth:`decide` for a fleet-decided window.

        The fleet backend already ran the clean-path prediction and the
        observe() repair/adaptation vectorized on the shared tables, so
        this applies everything :meth:`decide` does *besides* those two
        steps: fallback-streak reset, counters (including the
        bottleneck score, which consults the post-adaptation BPT exactly
        as the per-site path does), the decision record, retention and
        the ``on_decision`` callback.  Only clean (non-held,
        non-degraded-vote) predictions come through here, and only when
        observability is disabled — the service falls back to the
        per-site path otherwise.
        """
        self._held_streak = 0
        self._last_prediction = prediction
        counters = self.counters
        counters.windows += 1
        if prediction.confident:
            counters.confident_windows += 1
        else:
            counters.fallback_scheme_uses += 1
        if window.quality is not None and window.quality.degraded:
            counters.degraded_windows += 1
        if self.adapt:
            counters.adaptation_steps += 1
        if truth == OVERLOAD:
            if prediction.overloaded:
                counters.tp += 1
            else:
                counters.fn += 1
            if truth_bottleneck is not None:
                counters.bottleneck_windows += 1
                coordinator = self.meter.coordinator
                if coordinator.bpt_vote(prediction.gpv) == truth_bottleneck:
                    counters.bottleneck_correct += 1
        else:
            if prediction.overloaded:
                counters.fp += 1
            else:
                counters.tn += 1
        decision = MonitorDecision(
            index=window.index,
            t_start=window.stats.t_start,
            t_end=window.stats.t_end,
            prediction=prediction,
            truth=truth,
            truth_bottleneck=truth_bottleneck,
            stats=window.stats,
            held=False,
            quality=window.quality,
        )
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(decision)
        return decision

    # ------------------------------------------------------------------
    # fleet PI-tracker sharing
    # ------------------------------------------------------------------
    def pi_tracker_items(self) -> List[Tuple[PiDefinition, RunningCorrelation]]:
        """The tracked PI definitions and their trackers, in order."""
        return list(self._pi_trackers.items())

    def adopt_pi_trackers(self, trackers: dict) -> None:
        """Swap the PI trackers for fleet-backed view objects.

        ``trackers`` must cover exactly the currently tracked
        definitions (in the same order) with objects exposing the
        :class:`~repro.telemetry.streaming.RunningCorrelation` API;
        the fleet backend hands in views over its stacked moment array
        so per-site and vectorized updates share state.  Note that
        :meth:`load_state` rebuilds plain trackers — fleet adoption must
        happen after any restore.
        """
        if list(trackers) != list(self._pi_trackers):
            raise ValueError(
                "adopted PI trackers must cover exactly the tracked "
                "definitions, in order"
            )
        self._pi_trackers = dict(trackers)

    # ------------------------------------------------------------------
    # hot-swap
    # ------------------------------------------------------------------
    def swap_meter(self, meter: CapacityMeter) -> None:
        """Atomically replace the trained meter behind this monitor.

        ``decide()`` resolves ``self.meter.coordinator`` freshly on
        every call, so a single reference assignment is the whole
        install: the next decided window votes through the new
        synopsis/coordinator set while all run-local state — streaming
        aggregator (including a half-filled window), counters, PI
        trackers, held-decision streak — carries over untouched.  The
        new meter starts from a clean decision history, exactly as a
        freshly constructed monitor would, which is what makes a
        mid-run swap bit-identical to stop-retrain-restart.

        Callers must only swap at a window boundary (the service layer
        stages swaps until one); swapping mid-window is safe for the
        aggregator but would let one window mix two meters' votes.
        """
        if not meter.is_trained:
            raise ValueError("swap_meter needs a trained meter")
        if (
            meter.level != self.meter.level
            or tuple(meter.tiers) != tuple(self.meter.tiers)
            or meter.window != self.meter.window
        ):
            raise ValueError(
                "swapped meter must match level/tiers/window of the old one"
            )
        meter.coordinator.reset_history()
        self.meter = meter

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Run-local monitor state for checkpoint/restore.

        Together with the meter payload (which carries the coordinator
        tables, including any online adaptation so far) this is enough
        to resume mid-stream with decisions bit-identical to an
        uninterrupted run.  The bounded decision tail is debug state and
        is not captured.
        """
        return {
            "counters": asdict(self.counters),
            "aggregator": self.aggregator.state_dict(),
            "coordinator": self.meter.coordinator.runtime_state(),
            "pi": [
                {
                    "tier": definition.tier,
                    "yield_metric": definition.yield_metric,
                    "cost_metric": definition.cost_metric,
                    "level": definition.level,
                    "state": tracker.state_dict(),
                }
                for definition, tracker in self._pi_trackers.items()
            ],
            "held_streak": self._held_streak,
            "last_prediction": _prediction_to_dict(self._last_prediction),
        }

    def load_state(self, state: dict) -> None:
        """Restore run-local state captured by :meth:`state_dict`."""
        counters = state["counters"]
        self.counters = MonitorCounters(
            **{k: int(v) for k, v in counters.items()}
        )
        self.aggregator.load_state(state["aggregator"])
        self.meter.coordinator.restore_runtime_state(state["coordinator"])
        restored = {}
        for item in state["pi"]:
            definition = PiDefinition(
                tier=str(item["tier"]),
                yield_metric=str(item["yield_metric"]),
                cost_metric=str(item["cost_metric"]),
                level=str(item["level"]),
            )
            tracker = RunningCorrelation()
            tracker.load_state(item["state"])
            restored[definition] = tracker
        self._pi_trackers = restored
        self._held_streak = int(state["held_streak"])
        self._last_prediction = _prediction_from_dict(
            state["last_prediction"]
        )

    # ------------------------------------------------------------------
    def pi_correlations(self) -> Dict[PiDefinition, float]:
        """Current Corr(PI, throughput) per tracked candidate."""
        return {
            definition: tracker.value
            for definition, tracker in self._pi_trackers.items()
        }

    def best_pi(self) -> Optional[Tuple[PiDefinition, float]]:
        """The candidate with the largest correlation so far (Eq. 2)."""
        correlations = self.pi_correlations()
        if not correlations:
            return None
        definition = max(correlations, key=correlations.get)
        return definition, correlations[definition]

    def scores(self) -> Dict[str, float]:
        """The same score dict :meth:`CoordinatedPredictor.evaluate` returns."""
        c = self.counters
        tpr = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 1.0
        tnr = c.tn / (c.tn + c.fp) if (c.tn + c.fp) else 1.0
        return {
            "overload_ba": 0.5 * (tpr + tnr),
            "bottleneck_accuracy": (
                c.bottleneck_correct / c.bottleneck_windows
                if c.bottleneck_windows
                else 1.0
            ),
            "tp": float(c.tp),
            "tn": float(c.tn),
            "fp": float(c.fp),
            "fn": float(c.fn),
            "bottleneck_windows": float(c.bottleneck_windows),
        }

    def summary_rows(self) -> List[str]:
        """Human-readable summary of the monitoring session."""
        c = self.counters
        scores = self.scores()
        rows = [
            f"windows seen:        {c.windows} ({c.ticks} ticks)",
            f"confident fraction:  {c.confident_fraction:.3f}",
            f"fallback scheme:     {c.fallback_scheme_uses} windows",
            f"adaptation steps:    {c.adaptation_steps}",
            f"overload BA:         {scores['overload_ba']:.3f}",
            f"bottleneck accuracy: {scores['bottleneck_accuracy']:.3f}",
        ]
        if c.degraded_windows or c.partial_ticks:
            rows.append(
                f"degraded windows:    {c.degraded_windows} "
                f"({c.held_decisions} held, {c.abstained_votes} abstained "
                f"votes, {c.imputed_attributes} imputed attributes)"
            )
            rows.append(f"partial ticks:       {c.partial_ticks}")
        best = self.best_pi()
        if best is not None and self.counters.ticks >= 2:
            definition, corr = best
            rows.append(f"best PI:             {definition.label} (corr {corr:.3f})")
        return rows
