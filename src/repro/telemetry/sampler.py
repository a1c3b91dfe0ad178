"""Runtime statistics collection and windowed instance construction.

The paper collects hardware-counter and OS-level statistics **on each
tier every second**; the average over a 30-second interval, combined
with the corresponding high-level state, forms one training instance
(Section IV.A).  This module reproduces that pipeline:

* :class:`TelemetrySampler` ticks at the 1 s sampling interval,
  draining the website's physical counters and passing them through the
  :class:`~repro.telemetry.hpc.HpcModel` and
  :class:`~repro.telemetry.osmetrics.OsMetricsModel` of each tier;
* :class:`FleetSampler` samples many hpc-only websites in one pass,
  gathering their fields into arrays and synthesizing every tier's
  counters as one :class:`~repro.telemetry.hpc.HpcBlock`;
* :class:`MeasurementRun` holds the resulting per-interval records for
  one workload execution;
* :func:`build_dataset` averages records over fixed windows and labels
  each window with a caller-supplied oracle, yielding the
  :class:`~repro.telemetry.dataset.Dataset` a synopsis is trained on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..obs import OBS
from ..simulator.engine import Simulator
from ..simulator.website import MultiTierWebsite, WebsiteSample
from .dataset import Dataset, Instance
from .hpc import HPC_METRIC_NAMES, OBSERVED_FIELDS, HpcBlock, HpcModel
from .osmetrics import OsMetricsModel

__all__ = [
    "CONCRETE_LEVELS",
    "CLIENT_FIELDS",
    "HPC_LEVEL",
    "OS_LEVEL",
    "HYBRID_LEVEL",
    "FleetSampler",
    "IntervalRecord",
    "MeasurementRun",
    "SampledTick",
    "TIER_FIELDS",
    "TelemetryError",
    "TelemetrySampler",
    "WindowStats",
    "aggregate_window",
    "build_dataset",
    "concrete_levels",
    "metric_row",
    "metric_matrix",
]


class TelemetryError(ValueError):
    """A record violated the telemetry contract (missing tier/schema).

    Subclasses ``ValueError`` so existing schema-validation handlers
    keep working, while letting fault-aware consumers distinguish
    telemetry-shape problems from ordinary argument errors.
    """

HPC_LEVEL = "hpc"
OS_LEVEL = "os"
#: combined attribute space (paper Section VII future work: "combine
#: hardware counter level metrics with OS level metrics")
HYBRID_LEVEL = "hybrid"
#: the levels a sampler synthesizes; hybrid combines them per record
CONCRETE_LEVELS: Tuple[str, ...] = (HPC_LEVEL, OS_LEVEL)


def concrete_levels(level: str) -> Tuple[str, ...]:
    """The concrete levels a metric level reads (hybrid reads both)."""
    if level == HYBRID_LEVEL:
        return CONCRETE_LEVELS
    if level in CONCRETE_LEVELS:
        return (level,)
    raise ValueError(f"unknown metric level {level!r}")


@dataclass
class IntervalRecord:
    """Everything observed during one sampling interval."""

    website: WebsiteSample
    hpc: Dict[str, Dict[str, float]]
    os: Dict[str, Dict[str, float]]

    @property
    def t_start(self) -> float:
        return self.website.t_start

    @property
    def t_end(self) -> float:
        return self.website.t_end

    def metrics(self, level: str, tier: str) -> Dict[str, float]:
        if level == HPC_LEVEL:
            return self.hpc[tier]
        if level == OS_LEVEL:
            return self.os[tier]
        if level == HYBRID_LEVEL:
            combined = {f"hpc.{k}": v for k, v in self.hpc[tier].items()}
            combined.update(
                {f"os.{k}": v for k, v in self.os[tier].items()}
            )
            return combined
        raise KeyError(f"unknown metric level {level!r}")


@dataclass
class MeasurementRun:
    """One workload execution's worth of interval records."""

    workload: str
    interval: float
    records: List[IntervalRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def duration(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].t_end - self.records[0].t_start


@dataclass
class WindowStats:
    """Aggregated high-level state of one window, used for labelling."""

    t_start: float
    t_end: float
    submitted: int
    completed: int
    dropped: int
    response_time_sum: float
    tier_utilization: Dict[str, float]
    tier_queue: Dict[str, float]
    tier_distress: Dict[str, float]

    @property
    def mean_response_time(self) -> float:
        return self.response_time_sum / self.completed if self.completed else 0.0

    @property
    def throughput(self) -> float:
        span = self.t_end - self.t_start
        return self.completed / span if span > 0 else 0.0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.submitted if self.submitted else 0.0

    @property
    def bottleneck(self) -> str:
        """Tier under the most distress (meaningful when overloaded)."""
        return max(self.tier_distress, key=self.tier_distress.get)


class TelemetrySampler:
    """Samples a website every ``interval`` seconds into a run record.

    By default every interval record is retained in :attr:`run` — the
    batch posture, right for offline training where the whole run is
    windowed afterwards.  For *online* monitoring pass ``on_record`` (a
    per-tick consumer, e.g.
    :meth:`~repro.core.monitor.OnlineCapacityMonitor.push`) and bound
    ``retain`` so arbitrarily long runs hold O(retain) memory instead
    of growing without limit; ``retain=0`` keeps nothing.

    ``levels`` names the concrete metric levels to synthesize, ``hpc``
    and/or ``os`` (default both: the training testbed compares the
    two).  A live consumer passes only what it reads — see
    :attr:`~repro.core.monitor.OnlineCapacityMonitor.levels` — so an
    hpc-level meter never pays for the 64 sysstat metrics it ignores,
    the cost Section V.D deploys hardware counters to avoid.  A level
    left out builds no model and leaves its record dict empty; each
    level draws from its own per-tier generator, so the values of the
    levels kept are the same as in a both-level run.
    """

    def __init__(
        self,
        sim: Simulator,
        website: MultiTierWebsite,
        *,
        workload: str = "",
        interval: float = 1.0,
        hpc_noise: float = 0.03,
        os_noise: float = 0.05,
        seed: int = 0,
        on_record: Optional[Callable[["IntervalRecord"], None]] = None,
        retain: Optional[int] = None,
        levels: Iterable[str] = CONCRETE_LEVELS,
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        if retain is not None and retain < 0:
            raise ValueError("retain must be non-negative when given")
        self.levels = frozenset(levels)
        if not self.levels or not self.levels <= set(CONCRETE_LEVELS):
            raise ValueError(
                f"levels must be a non-empty subset of {CONCRETE_LEVELS}, "
                f"got {sorted(self.levels)}"
            )
        self.sim = sim
        self.website = website
        self.on_record = on_record
        self.retain = retain
        self.samples_taken = 0
        self.run = MeasurementRun(workload=workload, interval=interval)
        self._hpc_models: Dict[str, HpcModel] = {}
        if HPC_LEVEL in self.levels:
            self._hpc_models = {
                name: HpcModel(tier.spec, noise=hpc_noise, seed=seed * 1000 + i)
                for i, (name, tier) in enumerate(website.tiers.items())
            }
        # the front tier behaves like an app server (thread timeslicing,
        # user-heavy CPU split); deeper tiers like database servers
        self._os_models: Dict[str, OsMetricsModel] = {}
        if OS_LEVEL in self.levels:
            self._os_models = {
                name: OsMetricsModel(
                    tier.spec,
                    role="app" if i == 0 else "db",
                    noise=os_noise,
                    seed=seed * 1000 + 500 + i,
                )
                for i, (name, tier) in enumerate(website.tiers.items())
            }
        self._timer = sim.every(interval, self._tick)

    def stop(self) -> None:
        self._timer.cancel()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        t0 = OBS.clock() if OBS.enabled else None
        ws = self.website.sample()
        record = IntervalRecord(
            website=ws,
            hpc={
                name: model.observe(ws.tiers[name])
                for name, model in self._hpc_models.items()
            },
            os=self._observe_os(ws) if self._os_models else {},
        )
        self.samples_taken += 1
        records = self.run.records
        records.append(record)
        if self.retain is not None and len(records) > self.retain:
            del records[: len(records) - self.retain]
        if self.on_record is not None:
            self.on_record(record)
        if t0 is not None:
            OBS.inc(
                "repro_sampler_ticks_total",
                help="sampling intervals collected across all tiers",
            )
            OBS.observe_span("sampler_tick", OBS.clock() - t0)

    def _observe_os(self, ws: WebsiteSample) -> Dict[str, Dict[str, float]]:
        """The sysstat vector of every tier, NIC rates included."""
        duration = max(ws.client.duration, 1e-9)
        # attribute link traffic to tiers by the "src->dst" link names;
        # client-facing traffic lands on the front (first) tier.  This
        # works for the two-tier site and for arbitrary tier chains.
        net = {
            name: dict(
                rx_bytes_per_s=0.0,
                tx_bytes_per_s=0.0,
                rx_pck_per_s=0.0,
                tx_pck_per_s=0.0,
            )
            for name in ws.tiers
        }
        for link_name, link in ws.links.items():
            src, _, dst = link_name.partition("->")
            if dst in net:
                net[dst]["rx_bytes_per_s"] += link.byte_rate
                net[dst]["rx_pck_per_s"] += link.packet_rate
            if src in net:
                net[src]["tx_bytes_per_s"] += link.byte_rate
                net[src]["tx_pck_per_s"] += link.packet_rate
        front = next(iter(ws.tiers))
        net[front]["rx_bytes_per_s"] += ws.client.request_bytes / duration
        net[front]["tx_bytes_per_s"] += ws.client.response_bytes / duration
        client_pck = ws.client.completed * 2.0 / duration
        net[front]["rx_pck_per_s"] += client_pck
        net[front]["tx_pck_per_s"] += client_pck
        return {
            name: model.observe(ws.tiers[name], **net.get(name, {}))
            for name, model in self._os_models.items()
        }


#: the float fields of a client sample, then of each tier sample, in the
#: column order of :attr:`SampledTick.fields`: the tier fields are what
#: :class:`~repro.telemetry.hpc.HpcModel` reads, then what a fold reads
CLIENT_FIELDS: Tuple[str, ...] = ("t_start", "t_end", "response_time_sum")
TIER_FIELDS: Tuple[str, ...] = OBSERVED_FIELDS + ("cores", "queue_avg")
#: the count fields of a client sample; each tier adds its workers
CLIENT_COUNTS: Tuple[str, ...] = ("submitted", "completed", "dropped")
_CLIENT_GATHER = attrgetter(*CLIENT_FIELDS)
_COUNT_GATHER = attrgetter(*CLIENT_COUNTS)
_TIER_GATHER = attrgetter(*TIER_FIELDS)


@dataclass
class SampledTick:
    """One interval of every website a :class:`FleetSampler` reads.

    Arrays hold one row per website, in sampler order:

    * ``counters`` ``(sites, tiers, 16)``: each tier's hardware counters
      in :data:`~repro.telemetry.hpc.HPC_METRIC_NAMES` order, noise
      applied;
    * ``fields`` ``(sites, 3 + 9 * tiers)``: the client's
      :data:`CLIENT_FIELDS`, then each tier's :data:`TIER_FIELDS`;
    * ``counts`` ``(sites, 3 + tiers)``: the client's
      :data:`CLIENT_COUNTS`, then each tier's workers, in the dtype
      numpy gives the gathered values.

    ``odd`` lists the rows whose sample names other tiers than
    ``tiers``, or the same ones in another order.
    """

    samples: List[WebsiteSample]
    tiers: Tuple[str, ...]
    counters: np.ndarray
    fields: np.ndarray
    counts: np.ndarray
    odd: List[int]

    def record(self, row: int) -> IntervalRecord:
        """The record an hpc-level :class:`TelemetrySampler` would build."""
        return IntervalRecord(
            website=self.samples[row],
            hpc={
                tier: dict(zip(HPC_METRIC_NAMES, values))
                for tier, values in zip(self.tiers, self.counters[row].tolist())
            },
            os={},
        )


class FleetSampler:
    """Samples many websites' hardware counters in one array pass.

    The block form of one :class:`TelemetrySampler` per website at
    ``levels={"hpc"}``: each (website, tier) keeps the
    :class:`~repro.telemetry.hpc.HpcModel` that sampler would give it
    (the tier's spec, ``hpc_noise`` and seed ``seed * 1000 + tier
    index``), and :meth:`sample` derives the same counters, bit for bit,
    through one :class:`~repro.telemetry.hpc.HpcBlock`, leaving every
    model's generator where the per-site sampler leaves it.  Every
    website must have the same tiers.  It has no timer: its owner calls
    :meth:`sample` once per interval.
    """

    def __init__(
        self,
        websites: Sequence[MultiTierWebsite],
        seeds: Sequence[int],
        *,
        hpc_noise: float = 0.03,
    ):
        if not websites or len(seeds) != len(websites):
            raise ValueError("FleetSampler needs one seed per website, and a website")
        self.tiers = tuple(websites[0].tiers)
        if any(tuple(website.tiers) != self.tiers for website in websites):
            raise ValueError("FleetSampler websites must have the same tiers")
        self.websites = list(websites)
        self.block = HpcBlock(
            [
                HpcModel(tier.spec, noise=hpc_noise, seed=seed * 1000 + i)
                for website, seed in zip(websites, seeds)
                for i, tier in enumerate(website.tiers.values())
            ]
        )

    def sample(self) -> SampledTick:
        """Sample every website once and synthesize all their counters."""
        tiers = self.tiers
        samples: List[WebsiteSample] = []
        floats: List[tuple] = []
        counts: List[tuple] = []
        odd: List[int] = []
        for row, website in enumerate(self.websites):
            ws = website.sample()
            samples.append(ws)
            client = ws.client
            values = _CLIENT_GATHER(client)
            ints = _COUNT_GATHER(client)
            tier_samples = ws.tiers
            if tuple(tier_samples) != tiers:
                odd.append(row)
            for name in tiers:
                tier = tier_samples[name]
                values += _TIER_GATHER(tier)
                ints += (tier.workers,)
            floats.append(values)
            counts.append(ints)
        fields = np.array(floats, dtype=float)
        per_tier = fields[:, len(CLIENT_FIELDS) :].reshape(-1, len(TIER_FIELDS))
        counters = self.block.observe(per_tier[:, : len(OBSERVED_FIELDS)])
        return SampledTick(
            samples=samples,
            tiers=tiers,
            counters=counters.reshape(len(samples), len(tiers), -1),
            fields=fields,
            counts=np.array(counts),
            odd=odd,
        )


# ----------------------------------------------------------------------
# window aggregation
# ----------------------------------------------------------------------
def aggregate_window(records: Sequence[IntervalRecord]) -> WindowStats:
    """Collapse consecutive interval records into one window's stats."""
    if not records:
        raise ValueError("cannot aggregate an empty window")
    tiers = list(records[0].website.tiers)
    util: Dict[str, float] = {}
    queue: Dict[str, float] = {}
    distress: Dict[str, float] = {}
    for tier in tiers:
        samples = [r.website.tiers[tier] for r in records]
        util[tier] = sum(s.utilization for s in samples) / len(samples)
        queue[tier] = sum(s.queue_avg for s in samples) / len(samples)
        workers = samples[0].workers
        # Utilization identifies the constrained resource; the queue is
        # only a bounded tie-breaker between co-saturated tiers.  An
        # unbounded queue term would misattribute the bottleneck to the
        # *front* tier, where the whole admission backlog naturally
        # piles up while a deeper tier is the real constraint.
        backlog = queue[tier] / (queue[tier] + workers)
        distress[tier] = util[tier] + 0.5 * backlog
    clients = [r.website.client for r in records]
    return WindowStats(
        t_start=records[0].t_start,
        t_end=records[-1].t_end,
        submitted=sum(c.submitted for c in clients),
        completed=sum(c.completed for c in clients),
        dropped=sum(c.dropped for c in clients),
        response_time_sum=sum(c.response_time_sum for c in clients),
        tier_utilization=util,
        tier_queue=queue,
        tier_distress=distress,
    )


def metric_row(
    metrics: Mapping[str, float],
    names: Sequence[str],
    *,
    index: int,
    level: str,
    tier: str,
    strict: bool = True,
) -> List[float]:
    """One interval's metric dict as a row in ``names`` order, validated.

    A record missing an expected attribute raises a descriptive error
    naming the offending interval instead of a bare ``KeyError``; with
    ``strict`` (the schema was inferred, not caller-chosen) extra
    attributes are schema drift and raise too, rather than being
    silently dropped.
    """
    try:
        row = [metrics[name] for name in names]
    except KeyError as exc:
        raise ValueError(
            f"interval {index} ({level}/{tier}) is missing attribute "
            f"{exc.args[0]!r}; every record in a run must share the "
            f"attribute schema {sorted(names)}"
        ) from None
    if strict and len(metrics) != len(names):
        extra = sorted(set(metrics) - set(names))
        raise ValueError(
            f"interval {index} ({level}/{tier}) has unexpected "
            f"attributes {extra} beyond the run's schema {sorted(names)}"
        )
    return row


def metric_matrix(
    records: Sequence[IntervalRecord],
    *,
    level: str,
    tier: str,
    names: Sequence[str],
    strict: bool = True,
    start_index: int = 0,
) -> np.ndarray:
    """(n_records, n_attributes) float matrix of one tier's metrics.

    The shared fast path under :func:`build_dataset`,
    :func:`~repro.core.capacity.build_coordinated_instances` and the
    streaming aggregator: window averaging then becomes one vectorized
    ``mean(axis=0)`` per window instead of a per-dict Python loop.
    ``start_index`` offsets the interval number used in error messages.
    """
    return np.array(
        [
            metric_row(
                record.metrics(level, tier),
                names,
                index=start_index + i,
                level=level,
                tier=tier,
                strict=strict,
            )
            for i, record in enumerate(records)
        ],
        dtype=float,
    )


def build_dataset(
    run: MeasurementRun,
    *,
    level: str,
    tier: str,
    labeler: Callable[[WindowStats], int],
    window: int = 30,
    attributes: Optional[Sequence[str]] = None,
) -> Dataset:
    """Windowed, labelled dataset for one (tier, metric level).

    ``window`` counts sampling intervals per instance (the paper uses
    30 one-second samples).  A trailing partial window is discarded.
    ``labeler`` maps the window's high-level state to the class
    variable; pair it with the oracles in :mod:`repro.core.labeler`.

    Metric-dict key sets are validated across the whole run: a record
    missing an attribute (or, when the schema is inferred from the
    first record, carrying extras) raises a descriptive error naming
    the interval.  Window averaging is vectorized — one numpy mean per
    window over a prebuilt metric matrix.
    """
    if window <= 0:
        raise ValueError("window must be a positive number of intervals")
    n_windows = len(run.records) // window
    n_used = n_windows * window
    strict = attributes is None
    names: List[str] = (
        list(attributes)
        if attributes
        else sorted(run.records[0].metrics(level, tier)) if run.records else []
    )
    instances: List[Instance] = []
    if n_windows:
        rows = metric_matrix(
            run.records[:n_used],
            level=level,
            tier=tier,
            names=names,
            strict=strict,
        )
        for w in range(n_windows):
            start = w * window
            chunk = run.records[start : start + window]
            averaged = {
                name: float(value)
                for name, value in zip(
                    names, rows[start : start + window].mean(axis=0)
                )
            }
            stats = aggregate_window(chunk)
            label = labeler(stats)
            instances.append(
                Instance(
                    attributes=averaged,
                    label=label,
                    t_start=stats.t_start,
                    t_end=stats.t_end,
                    tier=tier,
                    workload=run.workload,
                    bottleneck=stats.bottleneck if label else None,
                )
            )
    return Dataset(instances, names)
