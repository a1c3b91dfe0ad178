"""Unit tests for streaming window aggregation and running statistics.

The load-bearing property is *bit-for-bit* equivalence with the batch
pipeline: a monitor folding 1 s records incrementally must emit exactly
the window metrics and stats :func:`build_dataset` /
:func:`aggregate_window` compute from a stored log, or online and
offline decisions diverge.
"""

import numpy as np
import pytest

from repro.core.pi import correlation
from repro.telemetry.sampler import (
    HPC_LEVEL,
    OS_LEVEL,
    IntervalRecord,
    TelemetrySampler,
    aggregate_window,
    build_dataset,
)
from repro.telemetry.streaming import (
    RunningCorrelation,
    StreamingWindowAggregator,
    WindowQuality,
)
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import ORDERING_MIX


@pytest.fixture
def sampled_run(sim, website):
    rbe = RemoteBrowserEmulator(
        sim, website, ORDERING_MIX, think_time_mean=0.5, seed=9
    )
    rbe.set_population(6)
    sampler = TelemetrySampler(sim, website, workload="probe", interval=1.0)
    sim.run(until=30.0)
    sampler.stop()
    return sampler.run


class TestRunningCorrelation:
    def test_matches_offline_correlation(self, rng):
        xs = rng.normal(size=200)
        ys = 0.6 * xs + rng.normal(scale=0.5, size=200)
        running = RunningCorrelation()
        for x, y in zip(xs, ys):
            running.update(float(x), float(y))
        assert running.value == pytest.approx(correlation(xs, ys), abs=1e-10)

    def test_fewer_than_two_samples_is_zero(self):
        running = RunningCorrelation()
        assert running.value == 0.0
        running.update(1.0, 2.0)
        assert running.value == 0.0

    def test_constant_series_is_zero(self):
        running = RunningCorrelation()
        for y in (1.0, 2.0, 3.0, 4.0):
            running.update(5.0, y)
        assert running.value == 0.0

    def test_perfect_correlation(self):
        running = RunningCorrelation()
        for x in (1.0, 2.0, 3.0, 4.0, 5.0):
            running.update(x, 2.0 * x + 1.0)
        assert running.value == pytest.approx(1.0)


class TestAggregatorValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            StreamingWindowAggregator(level=HPC_LEVEL, tiers=["app"], window=0)

    def test_rejects_empty_tiers(self):
        with pytest.raises(ValueError):
            StreamingWindowAggregator(level=HPC_LEVEL, tiers=[])

    def test_rejects_negative_retention(self):
        with pytest.raises(ValueError):
            StreamingWindowAggregator(
                level=HPC_LEVEL, tiers=["app"], retain_records=-1
            )

    def test_schema_drift_fails_loudly(self, sampled_run):
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL, tiers=["app"], window=10
        )
        for record in sampled_run.records[:5]:
            aggregator.push(record)
        del sampled_run.records[5].hpc["app"]["ipc"]
        with pytest.raises(ValueError) as err:
            aggregator.push(sampled_run.records[5])
        assert "interval 5" in str(err.value)
        assert "'ipc'" in str(err.value)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("level", [HPC_LEVEL, OS_LEVEL])
    def test_window_metrics_match_batch_exactly(self, sampled_run, level):
        window = 10
        dataset = build_dataset(
            sampled_run,
            level=level,
            tier="app",
            labeler=lambda stats: 0,
            window=window,
        )
        aggregator = StreamingWindowAggregator(
            level=level, tiers=["app"], window=window
        )
        emitted = [
            w
            for w in map(aggregator.push, sampled_run.records)
            if w is not None
        ]
        assert len(emitted) == len(dataset)
        for streamed, instance in zip(emitted, dataset.instances):
            # exact equality, not approx: both paths must reduce the
            # same rows with the same vectorized mean
            assert streamed.metrics["app"] == instance.attributes

    def test_window_stats_match_aggregate_window_exactly(self, sampled_run):
        window = 10
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL, tiers=["app", "db"], window=window
        )
        emitted = [
            w
            for w in map(aggregator.push, sampled_run.records)
            if w is not None
        ]
        for i, streamed in enumerate(emitted):
            batch = aggregate_window(
                sampled_run.records[i * window : (i + 1) * window]
            )
            assert streamed.stats == batch

    def test_partial_window_not_emitted(self, sampled_run):
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL, tiers=["app"], window=12
        )
        results = [aggregator.push(r) for r in sampled_run.records[:11]]
        assert all(r is None for r in results)
        assert aggregator.push(sampled_run.records[11]) is not None


def reshaped(record, **tiers):
    """A copy of ``record`` with hpc tier dicts replaced (None drops)."""
    hpc = dict(record.hpc)
    for tier, metrics in tiers.items():
        if metrics is None:
            del hpc[tier]
        else:
            hpc[tier] = metrics
    return IntervalRecord(website=record.website, hpc=hpc, os=record.os)


class TestLenientFold:
    """Lenient folds: clean records take one row write, the rest mask."""

    @pytest.mark.parametrize("level", [HPC_LEVEL, OS_LEVEL])
    def test_clean_windows_match_batch_exactly(self, sampled_run, level):
        window = 10
        aggregator = StreamingWindowAggregator(
            level=level, tiers=["app", "db"], window=window, lenient=True
        )
        emitted = [
            w
            for w in map(aggregator.push, sampled_run.records)
            if w is not None
        ]
        assert len(emitted) == len(sampled_run.records) // window
        for tier in ("app", "db"):
            dataset = build_dataset(
                sampled_run,
                level=level,
                tier=tier,
                labeler=lambda stats: 0,
                window=window,
            )
            for streamed, instance in zip(emitted, dataset.instances):
                assert streamed.metrics[tier] == instance.attributes
        assert all(w.quality.complete for w in emitted)

    def test_mixed_window_masks_each_fault(self, sampled_run):
        """Clean, dropped-attribute, schema-growth and missing-tier
        records in one window: masked means and quality by hand.  The
        record after the growth carries the grown schema, so it folds
        clean and must validate the new attribute's cell."""
        r = sampled_run.records[:5]
        dropped = {k: v for k, v in r[1].hpc["app"].items() if k != "ipc"}
        stream = [
            r[0],
            reshaped(r[1], app=dropped),
            reshaped(r[2], app=dict(r[2].hpc["app"], extra_counter=42.0)),
            reshaped(r[3], app=dict(r[3].hpc["app"], extra_counter=43.0)),
            reshaped(r[4], db=None),
        ]
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL, tiers=["app", "db"], window=5, lenient=True
        )
        emitted = [aggregator.push(record) for record in stream]
        assert emitted[:4] == [None] * 4
        window = emitted[4]

        def mean(values):
            return float(np.mean(values))

        app = window.metrics["app"]
        names = sorted(r[0].hpc["app"])
        assert sorted(app) == sorted(names + ["extra_counter"])
        assert app["ipc"] == mean(
            [r[i].hpc["app"]["ipc"] for i in (0, 2, 3, 4)]
        )
        for name in names:
            if name != "ipc":
                assert app[name] == mean([x.hpc["app"][name] for x in r])
        assert app["extra_counter"] == 42.5
        db = window.metrics["db"]
        for name in sorted(r[0].hpc["db"]):
            assert db[name] == mean([r[i].hpc["db"][name] for i in range(4)])
        cells = 5 * (len(names) + 1)
        # app: ipc missed once, the grown counter before it appeared
        # and once after; db: one tick of every attribute
        assert window.quality == WindowQuality(
            ticks=5,
            tier_coverage={"app": (cells - 4) / cells, "db": 0.8},
            missing_attributes={"app": (), "db": ()},
        )
        assert window.stats == aggregate_window(r)


class TestBoundedMemory:
    def test_retention_disabled_by_default(self, sampled_run):
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL, tiers=["app"], window=10
        )
        for record in sampled_run.records:
            aggregator.push(record)
        assert len(aggregator.recent) == 0
        assert aggregator.ticks_seen == len(sampled_run.records)

    def test_bounded_retention_keeps_tail(self, sampled_run):
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL, tiers=["app"], window=10, retain_records=7
        )
        for record in sampled_run.records:
            aggregator.push(record)
        assert list(aggregator.recent) == sampled_run.records[-7:]

    def test_state_stays_o_window_over_long_stream(self, sampled_run):
        """>=5000 ticks leave only the window ring + bounded tail behind."""
        window = 10
        aggregator = StreamingWindowAggregator(
            level=HPC_LEVEL,
            tiers=["app", "db"],
            window=window,
            retain_records=3,
        )
        ticks = 0
        while ticks < 5000:
            for record in sampled_run.records:
                aggregator.push(record)
                ticks += 1
        assert aggregator.ticks_seen == ticks
        assert aggregator.windows_emitted == ticks // window
        assert len(aggregator.recent) == 3
        for tier in ("app", "db"):
            acc = aggregator._acc[tier]
            assert acc.ring.shape == (window, len(acc.names))
