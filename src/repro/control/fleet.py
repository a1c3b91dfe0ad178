"""Structure-of-arrays fleet backend for the multi-site service.

PR 5's :class:`~repro.control.service.CapacityService` keeps a full
Python monitor clone per site and loops site-by-site for everything
except the one batched synopsis call; at fleet scale (1k+ sites) the
interpreter loop, not the hardware, bounds throughput.
:class:`FleetState` removes that bound without forking the code path:

* Every site's coordinator tables are stacked into shared
  structure-of-arrays blocks — LHT ``(S, patterns, histories)``, GPT
  ``(S, patterns)``, history registers ``(S, patterns)`` and BPT
  ``(S, patterns, tiers)`` — and each
  :class:`~repro.core.coordinator.CoordinatedPredictor` re-points its
  tables at basic-slice *views* of its shard
  (:meth:`~repro.core.coordinator.CoordinatedPredictor.adopt_tables`).
  The per-site code path therefore reads and writes the same memory the
  vectorized path does: degraded windows can drop to the existing
  per-site quorum path mid-stream and the two stay bit-identical by
  construction.

* The clean-window decide path (:meth:`decide_clean`) replays the exact
  GPT/LHT/BPT arithmetic of
  :meth:`~repro.core.coordinator.CoordinatedPredictor.predict_votes`
  followed by
  :meth:`~repro.core.coordinator.CoordinatedPredictor.observe`
  elementwise across all sites in one numpy pass — identical IEEE
  operations in identical per-site order, so every decision is
  bit-for-bit the one the scalar path produces.

* The PI correlation moments live in one ``(S, definitions, 8)``
  Welford array; each monitor's trackers are :class:`_PiTrackerView`
  objects over it, so the per-site fold and the vectorized step share
  the same state.

* Each *stacked* site's in-progress decision window lives in stacked
  arrays as well: a ``(S, window, n)`` row ring per configured tier,
  and per site the fill, tick and window counters, the window's start
  and end times, the client sums, and per website tier the
  utilization and queue sums and the window-start worker count.
  :meth:`fold_position` folds one delivery position — every site's
  k-th record this tick — in a few numpy operations: each distinct
  record object is gathered once and broadcast to the sites that
  received it, the PI moments take one vectorized step, and completed
  windows emit from the stacked means.  Sites whose emitted windows
  are bit-identical share one window object.

* A site folds on the stack only while its delivery is a *clean fit*:
  every configured tier at the meter level with exactly the stack's
  attribute set, and every PI definition's metrics.  Anything else
  *detaches* it — its stacked state is written into its own
  :class:`~repro.telemetry.streaming.StreamingWindowAggregator` and it
  folds through :meth:`~repro.core.monitor.OnlineCapacityMonitor.fold`,
  the reference path — until it *rejoins* at a window boundary with
  the stack's schema.  :meth:`sync` writes every stacked site's state
  back and keeps it stacked; state reads (``state_dict``, checkpoints)
  call it first.

* The stack, with the fleet sampler that feeds it, pays a fixed cost
  per tick (about 250 µs of numpy calls on a 2-vCPU VM) that a few
  sites' own samplers and folds undercut: about 50 µs per site on
  their own against about 14 µs on the stack.  So a fleet of fewer
  than :data:`STACK_MIN_SITES` sites stacks no site: the service
  samples, folds and decides each site through its own sampler and
  monitor, on the same shared tables and PI moments.

Bit-identity with the per-site path is the hard constraint throughout
and is pinned by ``tests/test_fleet.py``.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.coordinator import CoordinatedPrediction, Scheme
from ..core.monitor import MonitorDecision, OnlineCapacityMonitor
from ..obs import OBS
from ..telemetry.dataset import OVERLOAD, UNDERLOAD
from ..telemetry.hpc import HPC_METRIC_NAMES
from ..telemetry.sampler import (
    CLIENT_COUNTS,
    CLIENT_FIELDS,
    HPC_LEVEL,
    TIER_FIELDS,
    IntervalRecord,
    SampledTick,
    WindowStats,
)
from ..telemetry.streaming import (
    StreamingWindow,
    WindowQuality,
    _TierAccumulator,
    window_counters,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from ..drift.handle import MeterHandle
    from .service import SiteRuntime

__all__ = ["STACK_MIN_SITES", "FleetState"]

#: the fewest sites whose fleet samples, folds and decides on the
#: stack.  Sample plus fold plus flush per tick on a 2-vCPU VM
#: (docs/architecture.md §12): each site's own sampler and monitor were
#: faster up to 6 sites, the stack and its fleet sampler from 8 up, in
#: every run, and the two within noise at 7
STACK_MIN_SITES = 8

#: field order of one PI tracker's row in the stacked moment array
_PI_FIELDS = (
    "n",
    "mean_x",
    "mean_y",
    "m2_x",
    "m2_y",
    "cov",
    "max_abs_x",
    "max_abs_y",
)

#: what one fold reads from a record's client sample (throughput, the
#: PI's y, is derived from these as its property derives it), and
#: from each website tier sample (likewise utilization)
_CLIENT_FIELDS = attrgetter(*CLIENT_FIELDS)
_CLIENT_COUNTS = attrgetter(*CLIENT_COUNTS)
_TIER_FIELD_NAMES = ("t_start", "t_end", "core_busy_time", "cores", "queue_avg")
_TIER_FIELDS = attrgetter(*_TIER_FIELD_NAMES)
#: bound on one tick's stacked counts (see fold_position)
_COUNT_LIMIT = 2**31


def _row_getter(names: Sequence[str]) -> Callable[[Any], tuple]:
    """``mapping -> tuple`` of the values at ``names``, in order."""
    if len(names) == 1:
        name = names[0]
        return lambda metrics: (metrics[name],)
    if not names:
        return lambda metrics: ()
    return itemgetter(*names)


class _PiTrackerView:
    """:class:`~repro.telemetry.streaming.RunningCorrelation` over one
    ``(site, definition)`` row of the fleet's stacked moment array.

    Same update arithmetic in the same order, same ``state_dict``
    schema; scalar updates (the per-site fallback fold) and the fleet's
    vectorized update therefore interleave freely on shared state
    without ever diverging from a plain tracker.
    """

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray) -> None:
        self._row = row  # shape (8,) view

    @property
    def n(self) -> int:
        return int(self._row[0])

    def update(self, x: float, y: float) -> None:
        row = self._row
        n = row[0] + 1.0
        row[0] = n
        dx = x - row[1]
        row[1] += dx / n
        row[3] += dx * (x - row[1])
        dy = y - row[2]
        row[2] += dy / n
        # co-moment uses the pre-update x delta and post-update y mean
        row[5] += dx * (y - row[2])
        row[4] += dy * (y - row[2])
        if abs(x) > row[6]:
            row[6] = abs(x)
        if abs(y) > row[7]:
            row[7] = abs(y)

    @property
    def value(self) -> float:
        row = self._row
        n = row[0]
        if n < 2:
            return 0.0
        sx = (row[3] / n) ** 0.5
        sy = (row[4] / n) ** 0.5
        tol_x = 1e-12 * max(1.0, row[6])
        tol_y = 1e-12 * max(1.0, row[7])
        if sx <= tol_x or sy <= tol_y:
            return 0.0
        return float((row[5] / n) / (sx * sy))

    def state_dict(self) -> Dict[str, float]:
        row = self._row
        state = {
            name: float(row[k]) for k, name in enumerate(_PI_FIELDS)
        }
        state["n"] = int(row[0])
        return state

    def load_state(self, state: Dict[str, float]) -> None:
        for k, name in enumerate(_PI_FIELDS):
            self._row[k] = float(state[name])


class FleetState:
    """Shared structure-of-arrays state for a homogeneous monitor fleet.

    ``monitors`` are the service's per-site clones (one trained meter,
    N clones); their coordinator parameters, adaptation flags and PI
    definitions must be homogeneous — the stacked tables assume one
    shared decision function.  Construction re-points every
    coordinator's tables and every monitor's PI trackers at views of
    the stacked arrays; from then on either path may touch any site.
    A fleet of at least :data:`STACK_MIN_SITES` monitors :attr:`stacks`:
    every monitor whose aggregator sits on a window boundary joins the
    stacked fold (see :meth:`fold_position`), the rest at their next
    boundary.  A smaller fleet stacks no site.

    ``handle`` is the service's versioned
    :class:`~repro.drift.MeterHandle`.  The stacked tables are built
    from (and viewed by) whatever meter generation the monitors carry
    at construction; a hot-swap *replaces* the fleet — the service
    rebuilds ``FleetState`` over the freshly swapped monitors, exactly
    as ``resume()`` rebuilds it over restored ones — so the handle's
    version identifies which meter generation this fleet's arrays
    belong to.
    """

    def __init__(
        self,
        monitors: Sequence[OnlineCapacityMonitor],
        *,
        handle: Optional["MeterHandle"] = None,
    ) -> None:
        if not monitors:
            raise ValueError("FleetState needs at least one monitor")
        self.handle = handle
        self.monitors = list(monitors)
        coords = [m.meter.coordinator for m in self.monitors]
        ref = coords[0]
        signature = (
            ref.history_bits,
            ref.delta,
            ref.scheme,
            ref.counter_limit,
            ref.pattern_fallback,
            ref.pattern_counter_limit,
            tuple(ref.tiers),
            ref.n_synopses,
        )
        for coordinator in coords[1:]:
            other = (
                coordinator.history_bits,
                coordinator.delta,
                coordinator.scheme,
                coordinator.counter_limit,
                coordinator.pattern_fallback,
                coordinator.pattern_counter_limit,
                tuple(coordinator.tiers),
                coordinator.n_synopses,
            )
            if other != signature:
                raise ValueError(
                    "fleet coordinators must share parameters; got "
                    f"{other} vs {signature}"
                )
        adapt_flags = {m.adapt for m in self.monitors}
        if len(adapt_flags) != 1:
            raise ValueError("fleet monitors must share the adapt flag")
        self._adapt = adapt_flags.pop()
        self._delta = ref.delta
        self._counter_limit = ref.counter_limit
        self._pattern_fallback = ref.pattern_fallback
        self._pattern_counter_limit = ref.pattern_counter_limit
        self._fallback_state = (
            UNDERLOAD if ref.scheme is Scheme.OPTIMISTIC else OVERLOAD
        )
        self._mask = (1 << ref.history_bits) - 1
        self._bits = 1 << np.arange(ref.n_synopses, dtype=np.int64)
        self._tiers = list(ref.tiers)
        self._tier_index = {tier: k for k, tier in enumerate(self._tiers)}
        # BPT adaptation adds exactly one ±1.0 per cell (the per-site
        # loop's `+= 1.0 if tier == bottleneck else -1.0`); a
        # precomputed delta row per bottleneck keeps the float ops
        # identical — never "-1 everywhere then +2 on the winner"
        n_tiers = len(self._tiers)
        self._bpt_delta = np.full((n_tiers, n_tiers), -1.0)
        np.fill_diagonal(self._bpt_delta, 1.0)

        # ---- stack the coordinator tables and hand back views -------
        # (intra-package reach into CoordinatedPredictor's tables: the
        # adopt_tables contract is exactly this handshake)
        self.lht = np.stack([c._lht for c in coords])
        self.gpt = np.stack([c._gpt for c in coords])
        self.bpt = np.stack([c._bpt for c in coords])
        self.history = np.stack([c._history for c in coords])
        for i, coordinator in enumerate(coords):
            coordinator.adopt_tables(
                self.lht[i], self.gpt[i], self.bpt[i], self.history[i]
            )

        # ---- stack the PI tracker moments and hand back views -------
        items = self.monitors[0].pi_tracker_items()
        self.pi_definitions = [definition for definition, _ in items]
        for monitor in self.monitors[1:]:
            defs = [d for d, _ in monitor.pi_tracker_items()]
            if defs != self.pi_definitions:
                raise ValueError(
                    "fleet monitors must track identical PI definitions"
                )
        n_defs = len(self.pi_definitions)
        self.pi = np.zeros((len(self.monitors), n_defs, len(_PI_FIELDS)))
        for i, monitor in enumerate(self.monitors):
            trackers = {}
            for d, (definition, tracker) in enumerate(
                monitor.pi_tracker_items()
            ):
                state = tracker.state_dict()
                for k, name in enumerate(_PI_FIELDS):
                    self.pi[i, d, k] = float(state[name])
                trackers[definition] = _PiTrackerView(self.pi[i, d])
            if trackers:
                monitor.adopt_pi_trackers(trackers)

        # ---- the stacked fold ---------------------------------------
        # The stack's aggregator config is the first monitor's; a site
        # with another config, a debug record tail or an explicit
        # attribute schema always folds through its own aggregator.
        head = self.monitors[0].aggregator
        self._window = head.window
        self._level = head.level
        self._fold_tiers = list(head.tiers)
        config = (head.window, head.level, tuple(head.tiers), head.lenient)
        #: the size rule: does this fleet fold and decide on the stack?
        self.stacks = len(self.monitors) >= STACK_MIN_SITES
        self._stackable = [
            self.stacks
            and (a.window, a.level, tuple(a.tiers), a.lenient) == config
            and a.recent.maxlen == 0
            and a._explicit_attributes is None
            for a in (monitor.aggregator for monitor in self.monitors)
        ]
        n = len(self.monitors)
        self._stacked = [False] * n
        self.fill = np.zeros(n, dtype=np.int64)
        self.ticks_seen = np.zeros(n, dtype=np.int64)
        self.windows_emitted = np.zeros(n, dtype=np.int64)
        #: ``ticks_seen`` when the site's own aggregator last held its
        #: state (join or write-back); equal means nothing to write
        self._synced = np.zeros(n, dtype=np.int64)
        self.t_start = np.zeros(n)
        self.t_end = np.zeros(n)
        self.response_time_sum = np.zeros(n)
        #: submitted, completed, dropped
        self.counts = np.zeros((n, 3), dtype=np.int64)
        # the blocks below are sized by the schema: the first record
        # folded (or the first joining aggregator) fixes it
        self._names: Optional[List[List[str]]] = None
        #: per configured tier: (tier, attribute count, row getter)
        self._plan: List[Tuple[str, int, Callable[..., tuple]]] = []
        #: each configured tier's columns in a gathered float row
        self._row_slices: List[Tuple[int, int]] = []
        #: per configured tier, each stacked site's current window rows
        self.rings: List[np.ndarray] = []
        #: PI sources: (definitions, yield columns, cost columns) of the
        #: gathered rows, and the definitions read from the record
        #: itself (another level or tier): (definition, level, tier,
        #: getter)
        self._pi_columns: Tuple[np.ndarray, ...] = ()
        self._pi_extra: List[Tuple[int, str, str, Callable[..., tuple]]] = []
        self._web_tiers: Optional[Tuple[str, ...]] = None
        self._web_getter = _row_getter(())
        #: per website tier: utilization sum, queue sum
        self.tier_sums = np.zeros((n, 0, 2))
        #: per website tier: worker count at window start
        self.workers = np.zeros((n, 0), dtype=np.int64)
        # cached metric handles, valid while OBS.registry is the same
        # object
        self._obs_cache: Optional[tuple] = None
        #: (sampled tiers, fold_sampled column picks or None), once the
        #: schema is fixed
        self._sampled_cache: Optional[
            Tuple[Tuple[str, ...], Optional[Tuple[np.ndarray, np.ndarray]]]
        ] = None
        for i in range(n):
            if self._stackable[i]:
                self._join(i)

    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return len(self.monitors)

    @property
    def meter_version(self) -> int:
        """The meter generation these stacked tables were built from."""
        return self.handle.version if self.handle is not None else 1

    # ------------------------------------------------------------------
    # stack membership: schema, join, write-back, detach
    # ------------------------------------------------------------------
    def _set_schema(self, names: List[List[str]]) -> None:
        """Fix the attribute schema: ring sizes, row layout, PI columns.

        A gathered record is one flat float row: each configured tier's
        values in schema order, then the client's window times and
        response-time sum, then per website tier the fields its
        utilization derives from and its queue.
        """
        n = len(self.monitors)
        self._names = names
        self._plan = [
            (tier, len(tier_names), _row_getter(tier_names))
            for tier, tier_names in zip(self._fold_tiers, names)
        ]
        bounds = np.cumsum([0] + [len(tier_names) for tier_names in names])
        self._row_slices = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        self.rings = [
            np.zeros((n, self._window, len(tier_names)))
            for tier_names in names
        ]
        columns: List[Tuple[int, int, int]] = []
        self._pi_extra = []
        for d, definition in enumerate(self.pi_definitions):
            t = (
                self._fold_tiers.index(definition.tier)
                if definition.level == self._level
                and definition.tier in self._fold_tiers
                else -1
            )
            if t >= 0 and {
                definition.yield_metric,
                definition.cost_metric,
            } <= set(names[t]):
                offset = int(bounds[t])
                columns.append(
                    (
                        d,
                        offset + names[t].index(definition.yield_metric),
                        offset + names[t].index(definition.cost_metric),
                    )
                )
            else:
                self._pi_extra.append(
                    (
                        d,
                        definition.level,
                        definition.tier,
                        itemgetter(
                            definition.yield_metric, definition.cost_metric
                        ),
                    )
                )
        self._pi_columns = tuple(
            np.array(column, dtype=np.intp) for column in zip(*columns)
        )

    def _join(self, i: int) -> bool:
        """Stack site ``i`` if its aggregator can continue on the stack.

        It must sit on a window boundary (the next fold resets every
        window sum) with the stack's attribute schema, or with no
        schema yet.  Only the tick and window counters carry over.
        """
        aggregator = self.monitors[i].aggregator
        if aggregator._fill:
            return False
        accumulators = aggregator._acc
        if accumulators:
            if accumulators.keys() != set(self._fold_tiers):
                return False
            names = [accumulators[tier].names for tier in self._fold_tiers]
            if self._names is None:
                self._set_schema([list(tier_names) for tier_names in names])
            elif names != self._names:
                return False
        self._stacked[i] = True
        self.fill[i] = 0
        self.ticks_seen[i] = self._synced[i] = aggregator.ticks_seen
        self.windows_emitted[i] = aggregator.windows_emitted
        return True

    def _write_back(self, i: int) -> None:
        """Write stacked site ``i``'s fold state into its own monitor.

        Afterwards the aggregator and tick counter hold exactly what
        the per-site fold of the same records would have left: rows
        of the current window, every cell valid, and the window sums,
        which — as in the per-site path — outlive the window they
        belong to until the next fold starts a new one.
        """
        ticks = int(self.ticks_seen[i])
        if ticks == self._synced[i]:
            return
        monitor = self.monitors[i]
        aggregator = monitor.aggregator
        monitor.counters.ticks += ticks - aggregator.ticks_seen
        fill = int(self.fill[i])
        aggregator._fill = fill
        aggregator.ticks_seen = ticks
        aggregator.windows_emitted = int(self.windows_emitted[i])
        aggregator._t_start = float(self.t_start[i])
        aggregator._t_end = float(self.t_end[i])
        (
            aggregator._submitted,
            aggregator._completed,
            aggregator._dropped,
        ) = self.counts[i].tolist()
        aggregator._response_time_sum = float(self.response_time_sum[i])
        assert self._web_tiers is not None and self._names is not None
        sums = self.tier_sums[i].tolist()
        aggregator._util_sum = {
            tier: pair[0] for tier, pair in zip(self._web_tiers, sums)
        }
        aggregator._queue_sum = {
            tier: pair[1] for tier, pair in zip(self._web_tiers, sums)
        }
        aggregator._workers = dict(
            zip(self._web_tiers, self.workers[i].tolist())
        )
        for t, tier in enumerate(self._fold_tiers):
            acc = aggregator._acc.get(tier)
            if acc is None:
                acc = aggregator._acc[tier] = _TierAccumulator(
                    list(self._names[t]), self._window
                )
            acc.ring[:fill] = self.rings[t][i, :fill]
            acc.valid[:] = True
        self._synced[i] = ticks

    def _detach(self, i: int) -> None:
        self._write_back(i)
        self._stacked[i] = False

    def sync(self) -> None:
        """Write every stacked site's fold state into its own monitor.

        After this call each monitor's aggregator and tick counter hold
        the state the per-site path would have produced — required
        before reading ``state_dict`` or checkpointing.  Sites stay
        stacked.
        """
        for i, stacked in enumerate(self._stacked):
            if stacked:
                self._write_back(i)

    # ------------------------------------------------------------------
    # the stacked fold
    # ------------------------------------------------------------------
    def fold_position(
        self,
        groups: Sequence[Tuple[IntervalRecord, Sequence["SiteRuntime"]]],
    ) -> None:
        """Fold one delivery position into its sites.

        ``groups`` pairs each distinct record object with the site
        runtimes (``.index``, ``.monitor``, ``.pending``) it was
        delivered to at this position; a site appears at most once.
        Stacked sites (and sites that can join now) fold on the stack,
        each record gathered once; a site whose record is not a clean
        fit detaches first.  Every other site folds through its own
        monitor.  Completed windows land in each site's ``pending``.
        """
        stacked = self._stacked
        stackable = self._stackable
        if self._names is None or self._web_tiers is None:
            self._fix_schema([record for record, _ in groups])
        level = self._level
        plan = self._plan
        extra = self._pi_extra
        web = self._web_tiers
        web_getter = self._web_getter
        per_site: List[Tuple[IntervalRecord, "SiteRuntime"]] = []
        gathered: List[IntervalRecord] = []
        floats: List[tuple] = []
        ints: List[tuple] = []
        pairs: List[List[tuple]] = []
        index: List[int] = []
        source: List[int] = []
        sites: List["SiteRuntime"] = []
        for record, group in groups:
            fast = [
                site
                for site in group
                if stacked[site.index]
                or (stackable[site.index] and self._join(site.index))
            ]
            if len(fast) < len(group):
                per_site += [
                    (record, site) for site in group if not stacked[site.index]
                ]
            if not fast:
                continue
            website = record.website
            tier_samples = website.tiers
            try:
                if self._names is None or tuple(tier_samples) != web:
                    raise KeyError(level)
                row: tuple = ()
                for tier, size, getter in plan:
                    metrics = record.metrics(level, tier)
                    if len(metrics) != size:
                        raise KeyError(tier)
                    row += getter(metrics)
                if extra:
                    pairs.append(
                        [
                            getter(record.metrics(pi_level, pi_tier))
                            for _, pi_level, pi_tier, getter in extra
                        ]
                    )
            except KeyError:
                # not a clean fit: these sites fold per site from here
                for site in fast:
                    self._detach(site.index)
                    per_site.append((record, site))
                continue
            client = website.client
            row += _CLIENT_FIELDS(client)
            counts = _CLIENT_COUNTS(client)
            for sample in web_getter(tier_samples):
                row += _TIER_FIELDS(sample)
                counts += (sample.workers,)
            floats.append(row)
            ints.append(counts)
            index += [site.index for site in fast]
            source += [len(gathered)] * len(fast)
            gathered.append(record)
            sites += fast
        if sites:
            whole = np.array(ints)
            # per-tick counts below 2**31 keep every window sum inside
            # int64, where the per-site sums are unbounded Python ints
            if (
                whole.dtype == np.int64
                and whole.max() < _COUNT_LIMIT
                and whole.min() > -_COUNT_LIMIT
            ):
                self._fold_rows(
                    np.array(floats, dtype=float),
                    whole,
                    pairs,
                    np.array(index, dtype=np.intp),
                    np.array(source, dtype=np.intp),
                    sites,
                )
            else:
                # other counts keep their Python types and magnitudes
                # in the per-site sums: leave them to that path
                for site, u in zip(sites, source):
                    self._detach(site.index)
                    per_site.append((gathered[u], site))
        for record, site in per_site:
            window = site.monitor.fold(record)
            if window is not None:
                site.pending.append(window)

    def _set_web_tiers(self, tiers: Tuple[str, ...]) -> None:
        n = len(self.monitors)
        self._web_tiers = tiers
        self._web_getter = _row_getter(tiers)
        self.tier_sums = np.zeros((n, len(tiers), 2))
        self.workers = np.zeros((n, len(tiers)), dtype=np.int64)

    def _fix_schema(self, records: Sequence[IntervalRecord]) -> None:
        """Schema and website tiers from the first record carrying them."""
        if self._web_tiers is None:
            self._set_web_tiers(tuple(records[0].website.tiers))
        if self._names is not None:
            return
        for record in records:
            try:
                names = [
                    sorted(record.metrics(self._level, tier))
                    for tier in self._fold_tiers
                ]
            except KeyError:
                continue
            self._set_schema(names)
            return

    def fold_sampled(
        self,
        tick: SampledTick,
        rows: Sequence[int],
        sites: Sequence["SiteRuntime"],
    ) -> List[int]:
        """Fold a fleet sampler's rows straight onto the stack.

        ``sites[row]`` was sampled into row ``row`` of ``tick``; of
        ``rows``, the sites that are stacked, or can join now, fold with
        :meth:`fold_position`'s arithmetic (:meth:`_fold_rows`), and no
        interval record is built.  Returns the rows that did not fold:
        the site cannot stack at this tick, the tick's tiers or schema
        do not fit the stack, or the row's counts leave the bound of
        the stacked sums (its site detaches).  Their sites must fold a
        record built from the row.
        """
        layout = self._sampled_layout(tick)
        if layout is None:
            return list(rows)
        stacked = self._stacked
        stackable = self._stackable
        fast: List[int] = []
        fast_sites: List["SiteRuntime"] = []
        rest: List[int] = []
        for row in rows:
            site = sites[row]
            i = site.index
            if stacked[i] or (stackable[i] and self._join(i)):
                fast.append(row)
                fast_sites.append(site)
            else:
                rest.append(row)
        if not fast:
            return rest
        picked = np.array(fast, dtype=np.intp)
        counts = tick.counts[picked]
        # the bound fold_position keeps on the counts of a position
        if counts.dtype != np.int64:
            inside = np.zeros(len(fast), dtype=bool)
        else:
            inside = (
                (counts < _COUNT_LIMIT) & (counts > -_COUNT_LIMIT)
            ).all(axis=1)
        if not inside.all():
            for k in np.flatnonzero(~inside).tolist():
                self._detach(fast_sites[k].index)
                rest.append(fast[k])
            keep = np.flatnonzero(inside)
            if not len(keep):
                return rest
            picked = picked[keep]
            counts = counts[keep]
            fast_sites = [fast_sites[k] for k in keep.tolist()]
        metric_columns, field_columns = layout
        counters = tick.counters.reshape(len(tick.counters), -1)
        floats = np.concatenate(
            (
                counters[picked[:, None], metric_columns],
                tick.fields[picked[:, None], field_columns],
            ),
            axis=1,
        )
        self._fold_rows(
            floats,
            counts,
            [],
            np.array([site.index for site in fast_sites], dtype=np.intp),
            np.arange(len(picked)),
            fast_sites,
        )
        return rest

    def _sampled_layout(
        self, tick: SampledTick
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Column picks from a sampled tick into the stack's row layout.

        ``(metric columns, field columns)``: the fold tiers' counters in
        schema order from the flattened counters, then the client's and
        every tier's fold fields.  None when the tick does not fit:
        another level or website tier layout than the stack's, a schema
        other than every counter, or PI definitions reading outside the
        fold tiers (records carry those).  An unfixed schema is fixed
        from the tick, as from a record.
        """
        cached = self._sampled_cache
        if cached is not None and cached[0] == tick.tiers:
            return cached[1]
        tiers = tick.tiers
        if self._web_tiers is None:
            self._set_web_tiers(tiers)
        names = sorted(HPC_METRIC_NAMES)
        fits = (
            self._level == HPC_LEVEL
            and self._web_tiers == tiers
            and set(self._fold_tiers) <= set(tiers)
        )
        if fits and self._names is None:
            self._set_schema([list(names) for _ in self._fold_tiers])
        layout = None
        if (
            fits
            and self._names == [names] * len(self._fold_tiers)
            and not self._pi_extra
        ):
            width = len(HPC_METRIC_NAMES)
            column = {name: k for k, name in enumerate(HPC_METRIC_NAMES)}
            metric_columns = [
                tiers.index(tier) * width + column[name]
                for tier in self._fold_tiers
                for name in names
            ]
            head = len(CLIENT_FIELDS)
            field_columns = list(range(head)) + [
                head + t * len(TIER_FIELDS) + TIER_FIELDS.index(name)
                for t in range(len(tiers))
                for name in _TIER_FIELD_NAMES
            ]
            layout = (
                np.array(metric_columns, dtype=np.intp),
                np.array(field_columns, dtype=np.intp),
            )
        if self._names is not None:
            self._sampled_cache = (tiers, layout)
        return layout

    def _fold_rows(
        self,
        floats: np.ndarray,
        ints: np.ndarray,
        pairs: List[List[tuple]],
        idx: np.ndarray,
        src: np.ndarray,
        sites: List["SiteRuntime"],
    ) -> None:
        """Fold gathered records ``src`` into stacked sites ``idx``.

        The per-site fold's arithmetic, elementwise: ring rows are the
        record's values, window sums restart as ``0 + x`` exactly where
        the per-site path resets them to zero and adds, the
        ``ClientSample.throughput`` and ``TierSample.utilization``
        properties are re-derived with their own operations, and the
        PI step is :meth:`_pi_update`.
        """
        assert self._web_tiers is not None
        n_web = len(self._web_tiers)
        fill = self.fill[idx]
        start = fill == 0
        for ring, (lo, hi) in zip(self.rings, self._row_slices):
            ring[idx, fill] = floats[src, lo:hi]
        width = self._row_slices[-1][1]
        client = floats[:, width : width + 3]
        samples = floats[:, width + 3 :].reshape(len(floats), n_web, 5)
        counts = ints[:, :3]
        # `x if d > 0 else 0.0` and `0.0 if d <= 0 else x`: the division
        # runs where the property divides (a NaN d gives 0.0 and NaN)
        duration = client[:, 1] - client[:, 0]
        throughput = np.divide(
            counts[:, 1], duration, out=np.zeros(len(duration)),
            where=duration > 0,
        )
        tier_duration = samples[..., 1] - samples[..., 0]
        capacity = tier_duration * samples[..., 3]
        divides = ~(tier_duration <= 0)
        if not capacity.all() and (divides & (capacity == 0)).any():
            raise ZeroDivisionError("float division by zero")
        utilization = np.divide(
            samples[..., 2], capacity, out=np.zeros(capacity.shape),
            where=divides,
        )
        self.t_start[idx] = np.where(start, client[src, 0], self.t_start[idx])
        self.t_end[idx] = client[src, 1]
        self.response_time_sum[idx] = (
            np.where(start, 0.0, self.response_time_sum[idx]) + client[src, 2]
        )
        self.counts[idx] = (
            np.where(start[:, None], 0, self.counts[idx]) + counts[src]
        )
        addends = np.stack([utilization, samples[..., 4]], axis=-1)
        self.tier_sums[idx] = (
            np.where(start[:, None, None], 0.0, self.tier_sums[idx])
            + addends[src]
        )
        self.workers[idx] = np.where(
            start[:, None], ints[src, 3 : 3 + n_web], self.workers[idx]
        )
        self.ticks_seen[idx] += 1
        fill += 1
        self.fill[idx] = fill
        if self.pi_definitions:
            x = self._pi_x(floats, pairs)
            self._pi_update(idx, x[src], throughput[src])
        done = fill == self._window
        if done.any():
            positions = np.flatnonzero(done)
            self._emit(
                idx[positions],
                src[positions],
                [sites[k] for k in positions.tolist()],
            )

    def _pi_x(self, floats: np.ndarray, pairs: List[List[tuple]]) -> np.ndarray:
        """PI x per (record, definition): ``PiDefinition.value``.

        ``if cost <= 0: return 0.0`` divides where ``~(cost <= 0)``,
        never where ``cost > 0``: a NaN cost compares false both ways,
        so it divides and gives NaN, as the scalar code does.
        """
        shape = (len(floats), len(self.pi_definitions))
        yields = np.empty(shape)
        costs = np.empty(shape)
        if self._pi_columns:
            defs, yield_cols, cost_cols = self._pi_columns
            yields[:, defs] = floats[:, yield_cols]
            costs[:, defs] = floats[:, cost_cols]
        if self._pi_extra:
            extra = np.array(pairs, dtype=float).reshape(
                len(floats), len(self._pi_extra), 2
            )
            defs = np.array([entry[0] for entry in self._pi_extra])
            yields[:, defs] = extra[..., 0]
            costs[:, defs] = extra[..., 1]
        return np.divide(
            yields, costs, out=np.zeros(shape), where=~(costs <= 0)
        )

    def _pi_update(
        self, idx: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> None:
        """One Welford step for ``len(idx)`` sites, all definitions.

        ``x`` is ``(B, D)``, ``y`` is ``(B,)``.  Elementwise ops in the
        exact order
        :meth:`~repro.telemetry.streaming.RunningCorrelation.update`
        applies them, so the result is bit-identical to scalar updates.
        Python's ``max(old, new)`` keeps ``old`` unless ``new > old``,
        so a NaN sample leaves the running maximum alone: that is
        ``np.where(new > old, new, old)``, never ``np.maximum``, which
        propagates NaN.
        """
        sub = self.pi[idx]  # (B, D, 8) — fancy index copies
        y = y[:, None]
        n = sub[..., 0] + 1.0
        dx = x - sub[..., 1]
        mean_x = sub[..., 1] + dx / n
        m2_x = sub[..., 3] + dx * (x - mean_x)
        dy = y - sub[..., 2]
        mean_y = sub[..., 2] + dy / n
        cov = sub[..., 5] + dx * (y - mean_y)
        m2_y = sub[..., 4] + dy * (y - mean_y)
        abs_x = np.abs(x)
        abs_y = np.abs(y)
        sub[..., 0] = n
        sub[..., 1] = mean_x
        sub[..., 2] = mean_y
        sub[..., 3] = m2_x
        sub[..., 4] = m2_y
        sub[..., 5] = cov
        sub[..., 6] = np.where(abs_x > sub[..., 6], abs_x, sub[..., 6])
        sub[..., 7] = np.where(abs_y > sub[..., 7], abs_y, sub[..., 7])
        self.pi[idx] = sub

    # ------------------------------------------------------------------
    # window emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        idx: np.ndarray,
        src: np.ndarray,
        sites: List["SiteRuntime"],
    ) -> None:
        """Emit the completed windows of stacked sites ``idx``.

        Derived as ``StreamingWindowAggregator._emit`` derives them:
        ``ring.mean`` over the window axis (the same reduction as the
        per-site ``mean(axis=0)``), the stats elementwise, Python
        values via ``tolist()``.  Sites with bit-identical content
        share one window object, so votes run once per distinct window.
        The streaming-window metrics count each site's window, as each
        site's own aggregator would.
        """
        window = self._window
        index = self.windows_emitted[idx]
        self.windows_emitted[idx] = index + 1
        self.fill[idx] = 0
        reps, which = self._distinct(idx, src, index)
        rep_idx = idx[reps]
        means = [ring[rep_idx].mean(axis=1).tolist() for ring in self.rings]
        sums = self.tier_sums[rep_idx]
        util = sums[..., 0] / window
        queue = sums[..., 1] / window
        occupied = queue + self.workers[rep_idx]
        if not occupied.all():
            raise ZeroDivisionError("float division by zero")
        distress = (util + 0.5 * (queue / occupied)).tolist()
        util_rows = util.tolist()
        queue_rows = queue.tolist()
        starts = self.t_start[rep_idx].tolist()
        ends = self.t_end[rep_idx].tolist()
        response = self.response_time_sum[rep_idx].tolist()
        counts = self.counts[rep_idx].tolist()
        indices = index[reps].tolist()
        assert self._names is not None and self._web_tiers is not None
        web = self._web_tiers
        tiers = self._fold_tiers
        names = self._names
        emitted = []
        for r in range(len(rep_idx)):
            submitted, completed, dropped = counts[r]
            emitted.append(
                StreamingWindow(
                    index=indices[r],
                    metrics={
                        tier: dict(zip(names[t], means[t][r]))
                        for t, tier in enumerate(tiers)
                    },
                    stats=WindowStats(
                        t_start=starts[r],
                        t_end=ends[r],
                        submitted=submitted,
                        completed=completed,
                        dropped=dropped,
                        response_time_sum=response[r],
                        tier_utilization=dict(zip(web, util_rows[r])),
                        tier_queue=dict(zip(web, queue_rows[r])),
                        tier_distress=dict(zip(web, distress[r])),
                    ),
                    quality=WindowQuality(
                        ticks=window,
                        tier_coverage={tier: 1.0 for tier in tiers},
                        missing_attributes={tier: () for tier in tiers},
                    ),
                )
            )
        for site, k in zip(sites, which.tolist()):
            site.pending.append(emitted[k])
        if OBS.enabled:
            cache = self._obs_cache
            if cache is None or cache[0] is not OBS.registry:
                cache = self._obs_cache = window_counters()
            cache[1].inc(len(sites))
            cache[2].inc(window * len(sites))

    def _distinct(
        self, idx: np.ndarray, src: np.ndarray, index: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(representatives, representative of each) among ``idx``.

        Only sites that completed on the same record object can hold
        the same window, so content is compared within those groups
        alone: heterogeneous sites pay one ``np.unique`` on ``src``.
        """
        n = len(idx)
        _, group, sizes = np.unique(
            src, return_inverse=True, return_counts=True
        )
        if sizes.max() == 1:
            identity = np.arange(n)
            return identity, identity
        reps: List[int] = []
        which = np.empty(n, dtype=np.intp)
        order = np.argsort(group, kind="stable")
        for members in np.split(order, np.cumsum(sizes)[:-1]):
            parts = self._content(idx[members], index[members])
            if all((part == part[0]).all() for part in parts):
                which[members] = len(reps)
                reps.append(int(members[0]))
                continue
            # one opaque byte string per site: equal exactly when the
            # bits are
            key = np.concatenate(parts, axis=1)
            rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
            _, first, inverse = np.unique(
                rows.ravel(), return_index=True, return_inverse=True
            )
            which[members] = len(reps) + inverse
            reps.extend(members[first].tolist())
        return np.array(reps, dtype=np.intp), which

    def _content(self, idx: np.ndarray, index: np.ndarray) -> List[np.ndarray]:
        """The bits an emitted window is derived from, one row per site."""
        rows = len(idx)
        floats = [ring[idx].reshape(rows, ring[0].size) for ring in self.rings]
        floats += [
            self.t_start[idx, None],
            self.t_end[idx, None],
            self.response_time_sum[idx, None],
            self.tier_sums[idx].reshape(rows, self.tier_sums[0].size),
        ]
        return [part.view(np.uint64) for part in floats] + [
            self.counts[idx].view(np.uint64),
            self.workers[idx].view(np.uint64),
            index[:, None].view(np.uint64),
        ]

    # ------------------------------------------------------------------
    # vectorized clean-window decide
    # ------------------------------------------------------------------
    def decide_clean(
        self,
        entries: Sequence[
            Tuple[int, OnlineCapacityMonitor, StreamingWindow, Tuple[int, ...]]
        ],
    ) -> List[MonitorDecision]:
        """Decide one clean (batch-eligible) window per entry, stacked.

        ``entries`` are ``(site_index, monitor, window, votes)`` with
        **unique site indices** — the service batches multi-window
        flushes in waves so each site appears once per call.  The numpy
        pass reproduces ``predict_votes`` (GPV → history → Hc → λ with
        pattern fallback → BPT vote → speculative shift) and
        ``observe`` (history repair, ±1 LHT/GPT/BPT adaptation when the
        fleet adapts) elementwise; per-site bookkeeping then lands via
        :meth:`~repro.core.coordinator.CoordinatedPredictor.commit_clean_votes`
        and
        :meth:`~repro.core.monitor.OnlineCapacityMonitor.finish_fleet_decision`,
        which emit each window's metrics; ``repro.obs`` times the call
        as one ``fleet_decide`` span.
        """
        if not entries:
            return []
        t0 = OBS.clock() if OBS.enabled else None
        idx = np.array([entry[0] for entry in entries], dtype=np.intp)
        vote_matrix = np.array(
            [entry[3] for entry in entries], dtype=np.int64
        )
        if ((vote_matrix != 0) & (vote_matrix != 1)).any():
            raise ValueError("synopsis votes must be 0/1")
        gpv = vote_matrix @ self._bits
        hist = self.history[idx, gpv]
        hc = self.lht[idx, gpv, hist]
        pattern_count = self.gpt[idx, gpv]
        hc_over = hc > self._delta
        hc_under = hc < -self._delta
        undecided = ~hc_over & ~hc_under
        if self._pattern_fallback:
            pattern_over = undecided & (pattern_count > self._delta)
            pattern_under = undecided & (pattern_count < -self._delta)
        else:
            pattern_over = pattern_under = np.zeros_like(hc_over)
        overload = hc_over | pattern_over
        underload = hc_under | pattern_under
        confident = overload | underload
        state = np.where(
            overload,
            OVERLOAD,
            np.where(underload, UNDERLOAD, self._fallback_state),
        ).astype(np.int64)
        bpt_rows = self.bpt[idx, gpv]
        bpt_has_vote = bpt_rows.any(axis=1)
        bpt_argmax = bpt_rows.argmax(axis=1)
        # speculative shift, exactly as _shift_history does per site
        self.history[idx, gpv] = ((hist << 1) | state) & self._mask

        predictions: List[CoordinatedPrediction] = []
        truths = np.empty(len(entries), dtype=np.int64)
        truth_bottlenecks: List[Optional[str]] = []
        for b, (_, monitor, window, votes) in enumerate(entries):
            state_b = int(state[b])
            bottleneck = None
            if state_b == OVERLOAD and bool(bpt_has_vote[b]):
                bottleneck = self._tiers[int(bpt_argmax[b])]
            prediction = CoordinatedPrediction(
                state=state_b,
                bottleneck=bottleneck,
                gpv=int(gpv[b]),
                hc=float(hc[b]),
                confident=bool(confident[b]),
                synopsis_votes=tuple(int(v) for v in votes),
            )
            predictions.append(prediction)
            monitor.meter.coordinator.commit_clean_votes(
                prediction, int(hist[b])
            )
            truth = int(monitor.labeler(window.stats))
            truths[b] = truth
            truth_bottlenecks.append(
                window.stats.bottleneck if truth == OVERLOAD else None
            )

        # ---- observe(): history repair + optional adaptation --------
        if self._adapt:
            step = np.where(truths == OVERLOAD, 1.0, -1.0)
            self.lht[idx, gpv, hist] = np.clip(
                hc + step, -self._counter_limit, self._counter_limit
            )
            self.gpt[idx, gpv] = np.clip(
                pattern_count + step,
                -self._pattern_counter_limit,
                self._pattern_counter_limit,
            )
            for b, bottleneck in enumerate(truth_bottlenecks):
                if bottleneck is None:
                    continue
                tier_k = self._tier_index.get(bottleneck)
                if tier_k is None:
                    raise ValueError(
                        f"unknown bottleneck tier {bottleneck!r}"
                    )
                self.bpt[idx[b], gpv[b]] += self._bpt_delta[tier_k]
        shifted = self.history[idx, gpv]
        self.history[idx, gpv] = (shifted & ~1) | truths

        decisions = [
            monitor.finish_fleet_decision(
                window, predictions[b], int(truths[b]), truth_bottlenecks[b]
            )
            for b, (_, monitor, window, _) in enumerate(entries)
        ]
        if t0 is not None:
            OBS.observe_span("fleet_decide", OBS.clock() - t0)
        return decisions
