"""Streaming window aggregation with O(window) memory.

The paper's pipeline is *online*: statistics are sampled every second
and folded into 30 s decision windows as the site runs, not replayed
from a stored log.  :class:`StreamingWindowAggregator` reproduces that
posture: each 1 s :class:`~repro.telemetry.sampler.IntervalRecord` is
pushed into the current window incrementally — no re-scan of history,
no unbounded retention — and a completed window emerges as the same
per-tier averaged metric dicts and :class:`~repro.telemetry.sampler.WindowStats`
the offline :func:`~repro.telemetry.sampler.build_dataset` /
:func:`~repro.core.capacity.build_coordinated_instances` pair produces,
bit-for-bit on the same records.

Bit-for-bit equivalence is engineered, not hoped for: the aggregator
buffers the current window's metric rows in a preallocated
``(window, n_attributes)`` ring per tier and reduces it with the same
``mean(axis=0)`` call the batch path applies to the same rows, and the
high-level client/tier statistics accumulate in the same sequential
order :func:`~repro.telemetry.sampler.aggregate_window` sums them in.

Real perf-counter streams degrade: collectors stall, counters drop out
of a multiplexed set, intervals arrive late.  In ``lenient`` mode the
aggregator tolerates records whose tier set or attribute schema is
incomplete: every (tick, attribute) cell carries a validity bit, window
averages are taken over the valid cells only, and each emitted window
carries a :class:`WindowQuality` describing exactly what was missing so
downstream synopses can impute or abstain.  A fully-valid window takes
the identical ``mean(axis=0)`` fast path, so a clean stream through a
lenient aggregator is still bit-for-bit equal to the batch pipeline.

:class:`RunningCorrelation` is the Welford-style incremental Pearson
correlation used for online PI tracking (paper Equation 2) — constant
memory, one update per sample, no stored series.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import OBS
from ..simulator.website import WebsiteSample
from .sampler import IntervalRecord, TelemetryError, WindowStats, metric_row

__all__ = [
    "RunningCorrelation",
    "StreamingWindow",
    "StreamingWindowAggregator",
    "WindowQuality",
]


class RunningCorrelation:
    """Incremental Pearson correlation (Welford-style co-moments).

    Tracks running means and centered second moments of two series in
    O(1) memory; :attr:`value` matches the offline
    :func:`~repro.core.pi.correlation` semantics, including its
    constant-series guard: a series whose variation is at rounding-noise
    level relative to its magnitude correlates as 0.
    """

    def __init__(self) -> None:
        self.n = 0
        self._mean_x = 0.0
        self._mean_y = 0.0
        self._m2_x = 0.0
        self._m2_y = 0.0
        self._cov = 0.0
        self._max_abs_x = 0.0
        self._max_abs_y = 0.0

    def update(self, x: float, y: float) -> None:
        """Fold one (x, y) sample into the running moments."""
        self.n += 1
        dx = x - self._mean_x
        self._mean_x += dx / self.n
        self._m2_x += dx * (x - self._mean_x)
        dy = y - self._mean_y
        self._mean_y += dy / self.n
        # co-moment uses the pre-update x delta and post-update y mean
        self._cov += dx * (y - self._mean_y)
        self._m2_y += dy * (y - self._mean_y)
        self._max_abs_x = max(self._max_abs_x, abs(x))
        self._max_abs_y = max(self._max_abs_y, abs(y))

    @property
    def value(self) -> float:
        """Pearson correlation of everything seen so far (0 if < 2)."""
        if self.n < 2:
            return 0.0
        sx = (self._m2_x / self.n) ** 0.5
        sy = (self._m2_y / self.n) ** 0.5
        tol_x = 1e-12 * max(1.0, self._max_abs_x)
        tol_y = 1e-12 * max(1.0, self._max_abs_y)
        if sx <= tol_x or sy <= tol_y:
            return 0.0
        return (self._cov / self.n) / (sx * sy)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, float]:
        """Exact running moments, for monitor checkpoint/restore."""
        return {
            "n": self.n,
            "mean_x": self._mean_x,
            "mean_y": self._mean_y,
            "m2_x": self._m2_x,
            "m2_y": self._m2_y,
            "cov": self._cov,
            "max_abs_x": self._max_abs_x,
            "max_abs_y": self._max_abs_y,
        }

    def load_state(self, state: Dict[str, float]) -> None:
        """Restore the moments captured by :meth:`state_dict`."""
        self.n = int(state["n"])
        self._mean_x = float(state["mean_x"])
        self._mean_y = float(state["mean_y"])
        self._m2_x = float(state["m2_x"])
        self._m2_y = float(state["m2_y"])
        self._cov = float(state["cov"])
        self._max_abs_x = float(state["max_abs_x"])
        self._max_abs_y = float(state["max_abs_y"])


@dataclass(frozen=True)
class WindowQuality:
    """Telemetry completeness of one decision window.

    ``tier_coverage`` is the fraction of (tick, attribute) cells that
    carried a real measurement per tier — 1.0 for pristine telemetry,
    0.0 for a tier whose collector was silent all window.
    ``missing_attributes`` lists, per tier, the attributes with *zero*
    valid samples (they are absent from the window's metric dict and
    must be imputed or abstained on downstream).
    """

    ticks: int
    tier_coverage: Dict[str, float]
    missing_attributes: Dict[str, Tuple[str, ...]]

    @property
    def complete(self) -> bool:
        """True when every configured tier reported every sample."""
        return all(c >= 1.0 for c in self.tier_coverage.values())

    @property
    def degraded(self) -> bool:
        return not self.complete


@dataclass(frozen=True)
class StreamingWindow:
    """One completed decision window emitted by the aggregator."""

    index: int
    metrics: Dict[str, Dict[str, float]]
    stats: WindowStats
    quality: Optional[WindowQuality] = field(default=None, compare=False)


class _TierAccumulator:
    """Per-tier metric-row buffer (+ validity mask) for one window."""

    __slots__ = ("names", "ring", "valid", "_index")

    def __init__(self, names: List[str], window: int):
        self.names = names
        self._index = {name: j for j, name in enumerate(names)}
        #: current window's metric rows; reduced with the identical
        #: ``mean(axis=0)`` the batch path applies to the same rows
        self.ring = np.empty((window, len(names)), dtype=float)
        #: per-(tick, attribute) validity — a cell is False when the
        #: record lacked that tier or attribute (lenient mode only)
        self.valid = np.ones((window, len(names)), dtype=bool)

    def knows(self, name: str) -> bool:
        return name in self._index

    def grow(self, new_names: List[str], fill: int) -> None:
        """Adopt attributes first seen mid-stream (lenient mode).

        A counter that was dropped when the schema was inferred — e.g.
        faulted out of the very first record — joins the schema the
        moment it reappears; its cells for the rows already folded this
        window are marked invalid.
        """
        window = self.ring.shape[0]
        added = len(new_names)
        for name in new_names:
            self._index[name] = len(self.names)
            self.names.append(name)
        self.ring = np.concatenate(
            [self.ring, np.empty((window, added), dtype=float)], axis=1
        )
        grown = np.zeros((window, added), dtype=bool)
        self.valid = np.concatenate([self.valid, grown], axis=1)
        # rows beyond ``fill`` are rewritten tick by tick; rows before
        # it carried no data for the new attributes
        self.valid[:fill, -added:] = False


def window_counters() -> tuple:
    """``(registry, windows, ticks, degraded)``: the emitted-window
    counters in ``OBS.registry``, for a caller to cache while the
    registry stays the same object."""
    registry = OBS.registry
    return (
        registry,
        registry.counter(
            "repro_streaming_windows_total",
            help="decision windows emitted by streaming aggregators",
        ),
        registry.counter(
            "repro_streaming_ticks_total",
            help="interval records folded by streaming aggregators",
        ),
        registry.counter(
            "repro_streaming_degraded_windows_total",
            help="emitted windows with incomplete telemetry",
        ),
    )


class StreamingWindowAggregator:
    """Fold 1 s interval records into decision windows incrementally.

    Parameters mirror the batch pipeline: ``level`` picks the metric
    vocabulary, ``tiers`` the per-tier metric dicts to average,
    ``window`` the number of sampling intervals per decision.  State is
    O(window): one ``(window, n_attributes)`` row buffer per tier plus
    scalar accumulators.  ``retain_records`` optionally keeps the last
    N raw records in :attr:`recent` for debugging (0 keeps none).

    ``push`` returns the completed :class:`StreamingWindow` on every
    ``window``-th record, ``None`` otherwise.  Attribute schemas are
    inferred from the first record (sorted, like the batch path) and
    validated on every subsequent tick; by default a mid-run schema
    change or a record missing a configured tier fails loudly with a
    :class:`~repro.telemetry.sampler.TelemetryError` naming the
    offending interval.  With ``lenient=True`` such records instead
    flow through the *dropout path*: absent cells are masked out of the
    window average and reported in the emitted window's
    :class:`WindowQuality` (the degraded-mode posture the online
    monitor uses).
    """

    def __init__(
        self,
        *,
        level: str,
        tiers: Sequence[str],
        window: int = 30,
        attributes: Optional[Dict[str, Sequence[str]]] = None,
        retain_records: int = 0,
        lenient: bool = False,
    ):
        if window <= 0:
            raise ValueError("window must be a positive number of intervals")
        if not tiers:
            raise ValueError("need at least one tier")
        if retain_records < 0:
            raise ValueError("retain_records must be non-negative")
        self.level = level
        self.tiers = list(tiers)
        self.window = window
        self.lenient = lenient
        self._explicit_attributes = attributes
        #: per-tier accumulators, created lazily on the first record
        #: that carries each tier's metrics (strict mode requires all
        #: tiers on the first record, so lazy == eager there)
        self._acc: Dict[str, _TierAccumulator] = {}
        self._started = False
        self._fill = 0  # rows of the current window already folded
        self.ticks_seen = 0
        self.windows_emitted = 0
        #: bounded raw-record tail for debugging
        self.recent: Deque[IntervalRecord] = deque(maxlen=retain_records)
        # FleetState (control/fleet.py) keeps the fill, counters and
        # window state below as stacked arrays while a site folds on
        # its stack and writes them back field by field: a field added
        # here must be added there too.
        # high-level window accumulators (same sequential order as
        # aggregate_window's sums, so the emitted stats are identical);
        # stats cover *all* website tiers, like aggregate_window, even
        # when metrics are collected for a subset
        self._t_start = 0.0
        self._t_end = 0.0
        self._submitted = 0
        self._completed = 0
        self._dropped = 0
        self._response_time_sum = 0.0
        self._util_sum: Dict[str, float] = {}
        self._queue_sum: Dict[str, float] = {}
        self._workers: Dict[str, int] = {}
        # cached metric handles, valid while OBS.registry is the same
        # object (transient; excluded from checkpoint state)
        self._obs_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    def _tier_metrics(self, record: IntervalRecord, tier: str):
        """The tier's metric dict, or None when the record lacks it."""
        try:
            return record.metrics(self.level, tier)
        except KeyError:
            if self.lenient:
                return None
            raise TelemetryError(
                f"interval {self.ticks_seen} carries no "
                f"{self.level!r} metrics for tier {tier!r}; configured "
                f"tiers are {self.tiers} (use lenient=True to route "
                f"missing tiers through the dropout path)"
            ) from None

    def _ensure_accumulator(
        self, record: IntervalRecord, tier: str
    ) -> Optional[_TierAccumulator]:
        acc = self._acc.get(tier)
        if acc is not None:
            return acc
        if self._explicit_attributes is not None:
            names = list(self._explicit_attributes[tier])
        else:
            metrics = self._tier_metrics(record, tier)
            if metrics is None:
                return None  # lenient: schema unknown until tier appears
            names = sorted(metrics)
        acc = self._acc[tier] = _TierAccumulator(names, self.window)
        # rows folded before this tier first appeared carry no data
        acc.valid[: self._fill] = False
        return acc

    def _reset_window(self, sample: WebsiteSample) -> None:
        self._fill = 0
        self._t_start = sample.t_start
        self._submitted = 0
        self._completed = 0
        self._dropped = 0
        self._response_time_sum = 0.0
        self._util_sum = {tier: 0.0 for tier in sample.tiers}
        self._queue_sum = {tier: 0.0 for tier in sample.tiers}
        self._workers = {
            tier: tier_sample.workers
            for tier, tier_sample in sample.tiers.items()
        }
        for acc in self._acc.values():
            acc.valid[:] = True

    # ------------------------------------------------------------------
    def push(self, record: IntervalRecord) -> Optional[StreamingWindow]:
        """Fold one interval record; emit the window when it completes."""
        if self._fill == 0:
            self._reset_window(record.website)
        strict = self._explicit_attributes is None and not self.lenient
        for tier in self.tiers:
            acc = self._ensure_accumulator(record, tier)
            if acc is None:
                continue
            metrics = self._tier_metrics(record, tier)
            if metrics is None:
                acc.valid[self._fill] = False
                continue
            if self.lenient:
                if metrics.keys() == acc._index.keys():
                    # a clean record: one row write, every cell valid —
                    # the cells the per-attribute loop below would set
                    acc.ring[self._fill] = [metrics[name] for name in acc.names]
                    acc.valid[self._fill] = True
                    continue
                if self._explicit_attributes is None:
                    # inferred schemas grow: an attribute absent from
                    # the record the schema came from still joins once
                    # it shows up (schemas given explicitly are a
                    # contract and extras stay ignored)
                    unknown = sorted(
                        name for name in metrics if not acc.knows(name)
                    )
                    if unknown:
                        acc.grow(unknown, self._fill)
                row = acc.ring[self._fill]
                mask = acc.valid[self._fill]
                for j, name in enumerate(acc.names):
                    value = metrics.get(name)
                    if value is None:
                        row[j] = np.nan
                        mask[j] = False
                    else:
                        row[j] = value
                        mask[j] = True
            else:
                acc.ring[self._fill] = metric_row(
                    metrics,
                    acc.names,
                    index=self.ticks_seen,
                    level=self.level,
                    tier=tier,
                    strict=strict,
                )
        for tier, sample in record.website.tiers.items():
            self._util_sum[tier] += sample.utilization
            self._queue_sum[tier] += sample.queue_avg
        client = record.website.client
        self._submitted += client.submitted
        self._completed += client.completed
        self._dropped += client.dropped
        self._response_time_sum += client.response_time_sum
        self._t_end = record.t_end
        self.ticks_seen += 1
        self._fill += 1
        self.recent.append(record)
        if self._fill < self.window:
            return None
        return self._emit()

    def _emit(self) -> StreamingWindow:
        t0 = OBS.clock() if OBS.enabled else None
        metrics: Dict[str, Dict[str, float]] = {}
        coverage: Dict[str, float] = {}
        missing: Dict[str, Tuple[str, ...]] = {}
        for tier in self.tiers:
            acc = self._acc.get(tier)
            if acc is None:
                # tier never produced a record: no schema, no metrics
                coverage[tier] = 0.0
                missing[tier] = ()
                continue
            if acc.valid.all():
                # the batch path's exact arithmetic — bit-for-bit
                metrics[tier] = {
                    name: float(value)
                    for name, value in zip(acc.names, acc.ring.mean(axis=0))
                }
                coverage[tier] = 1.0
                missing[tier] = ()
                continue
            averaged: Dict[str, float] = {}
            absent: List[str] = []
            for j, name in enumerate(acc.names):
                cells = acc.ring[acc.valid[:, j], j]
                if cells.size:
                    averaged[name] = float(cells.mean())
                else:
                    absent.append(name)
            coverage[tier] = float(acc.valid.mean())
            missing[tier] = tuple(absent)
            if averaged:
                metrics[tier] = averaged
        util: Dict[str, float] = {}
        queue: Dict[str, float] = {}
        distress: Dict[str, float] = {}
        for tier in self._util_sum:
            util[tier] = self._util_sum[tier] / self.window
            queue[tier] = self._queue_sum[tier] / self.window
            backlog = queue[tier] / (queue[tier] + self._workers[tier])
            distress[tier] = util[tier] + 0.5 * backlog
        stats = WindowStats(
            t_start=self._t_start,
            t_end=self._t_end,
            submitted=self._submitted,
            completed=self._completed,
            dropped=self._dropped,
            response_time_sum=self._response_time_sum,
            tier_utilization=util,
            tier_queue=queue,
            tier_distress=distress,
        )
        emitted = StreamingWindow(
            index=self.windows_emitted,
            metrics=metrics,
            stats=stats,
            quality=WindowQuality(
                ticks=self.window,
                tier_coverage=coverage,
                missing_attributes=missing,
            ),
        )
        self.windows_emitted += 1
        self._fill = 0
        if t0 is not None:
            cache = self._obs_cache
            if cache is None or cache[0] is not OBS.registry:
                cache = self._obs_cache = window_counters()
            cache[1].inc()
            # ticks are flushed per emitted window (a window completes
            # after exactly ``window`` pushes) to keep the per-record
            # hot path free of metric operations
            cache[2].inc(self.window)
            if emitted.quality is not None and emitted.quality.degraded:
                cache[3].inc()
            OBS.observe_span("window_emit", OBS.clock() - t0)
        return emitted

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to resume mid-window, bit-for-bit.

        The bounded :attr:`recent` debug tail is deliberately not
        captured — it never influences decisions.
        """
        return {
            "fill": self._fill,
            "ticks_seen": self.ticks_seen,
            "windows_emitted": self.windows_emitted,
            "tiers": {
                tier: {
                    "names": list(acc.names),
                    "rows": acc.ring[: self._fill].tolist(),
                    "valid": acc.valid[: self._fill].tolist(),
                }
                for tier, acc in self._acc.items()
            },
            "stats": {
                "t_start": self._t_start,
                "t_end": self._t_end,
                "submitted": self._submitted,
                "completed": self._completed,
                "dropped": self._dropped,
                "response_time_sum": self._response_time_sum,
                "util_sum": dict(self._util_sum),
                "queue_sum": dict(self._queue_sum),
                "workers": dict(self._workers),
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore the mid-window state captured by :meth:`state_dict`."""
        self._fill = int(state["fill"])
        self.ticks_seen = int(state["ticks_seen"])
        self.windows_emitted = int(state["windows_emitted"])
        self._acc = {}
        for tier, payload in state["tiers"].items():
            acc = _TierAccumulator(list(payload["names"]), self.window)
            rows = np.asarray(payload["rows"], dtype=float)
            valid = np.asarray(payload["valid"], dtype=bool)
            if rows.size:
                acc.ring[: self._fill] = rows
            if valid.size:
                acc.valid[: self._fill] = valid
            self._acc[tier] = acc
        stats = state["stats"]
        self._t_start = float(stats["t_start"])
        self._t_end = float(stats["t_end"])
        self._submitted = int(stats["submitted"])
        self._completed = int(stats["completed"])
        self._dropped = int(stats["dropped"])
        self._response_time_sum = float(stats["response_time_sum"])
        self._util_sum = {k: float(v) for k, v in stats["util_sum"].items()}
        self._queue_sum = {k: float(v) for k, v in stats["queue_sum"].items()}
        self._workers = {k: int(v) for k, v in stats["workers"].items()}
