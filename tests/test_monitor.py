"""Integration tests for the online capacity monitor.

The acceptance bar: per-window decisions from the streaming path must
be *bit-for-bit* identical to the offline pipeline
(:func:`build_coordinated_instances` + the coordinator's
predict/observe replay) on the same records, and the monitor's memory
must stay bounded no matter how long it runs.
"""

import copy

import pytest

from repro.core.capacity import CapacityMeter, build_coordinated_instances
from repro.core.labeler import SlaOracle
from repro.core.monitor import OnlineCapacityMonitor
from repro.core.pi import correlation, pi_series, throughput_series
from repro.telemetry.sampler import HPC_LEVEL, HYBRID_LEVEL, OS_LEVEL
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import ORDERING_MIX


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


class TestConstruction:
    def test_rejects_untrained_meter(self):
        raw = CapacityMeter(level=HPC_LEVEL, window=10, labeler=SlaOracle())
        with pytest.raises(ValueError):
            OnlineCapacityMonitor(raw)

    def test_tracks_pi_per_tier_and_candidate(self, meter):
        monitor = OnlineCapacityMonitor(meter)
        assert len(monitor.pi_correlations()) == 2 * len(meter.tiers)

    def test_pi_tracking_can_be_disabled(self, meter):
        monitor = OnlineCapacityMonitor(meter, track_pi=False)
        assert monitor.pi_correlations() == {}
        assert monitor.best_pi() is None


class TestOfflineEquivalence:
    def test_decisions_match_offline_pipeline_bit_for_bit(
        self, mini_pipeline, meter
    ):
        run = mini_pipeline.test_run("ordering")
        monitor = OnlineCapacityMonitor(meter)
        decisions = [
            d for d in map(monitor.push, run.records) if d is not None
        ]

        instances = build_coordinated_instances(
            run,
            level=HPC_LEVEL,
            tiers=["app", "db"],
            labeler=mini_pipeline.labeler,
            window=mini_pipeline.config.window,
        )
        assert len(decisions) == len(instances) > 0

        # replay the exact predict/observe sequence evaluate() uses;
        # dataclass equality covers every field including the float hc
        coordinator = meter.coordinator
        coordinator.reset_history()
        for decision, instance in zip(decisions, instances):
            offline = coordinator.predict(instance.metrics)
            coordinator.observe(instance.label)
            assert decision.prediction == offline
            assert decision.truth == instance.label
            assert decision.truth_bottleneck == instance.bottleneck

    def test_scores_match_offline_evaluate(self, mini_pipeline, meter):
        run = mini_pipeline.test_run("browsing")
        monitor = OnlineCapacityMonitor(meter)
        for record in run.records:
            monitor.push(record)
        assert monitor.scores() == meter.evaluate_run(run)

    def test_pi_correlations_match_offline_series(self, mini_pipeline, meter):
        run = mini_pipeline.test_run("ordering")
        monitor = OnlineCapacityMonitor(meter)
        for record in run.records:
            monitor.push(record)
        reference = throughput_series(run)
        for definition, value in monitor.pi_correlations().items():
            offline = correlation(pi_series(run, definition), reference)
            assert value == pytest.approx(offline, abs=1e-9)


class TestCountersAndRetention:
    def test_counters_partition_windows(self, mini_pipeline, meter):
        run = mini_pipeline.test_run("interleaved")
        monitor = OnlineCapacityMonitor(meter)
        for record in run.records:
            monitor.push(record)
        c = monitor.counters
        assert c.ticks == len(run.records)
        assert c.windows == len(run.records) // meter.window
        assert c.tp + c.tn + c.fp + c.fn == c.windows
        assert c.confident_windows + c.fallback_scheme_uses == c.windows
        assert 0.0 <= c.confident_fraction <= 1.0
        assert c.adaptation_steps == 0  # adapt defaults off

    def test_decision_tail_is_bounded(self, mini_pipeline, meter):
        run = mini_pipeline.test_run("ordering")
        delivered = []
        monitor = OnlineCapacityMonitor(
            meter, retain_decisions=2, on_decision=delivered.append
        )
        for record in run.records:
            monitor.push(record)
        assert monitor.counters.windows > 2
        assert len(monitor.decisions) == 2
        # the callback still saw every decision despite the bound
        assert len(delivered) == monitor.counters.windows
        assert list(monitor.decisions) == delivered[-2:]

    def test_long_stream_keeps_memory_bounded(self, mini_pipeline, meter):
        """>=5000 ticks: only counters grow, never per-interval state."""
        records = mini_pipeline.test_run("ordering").records
        monitor = OnlineCapacityMonitor(
            meter, retain_decisions=4, retain_records=5
        )
        ticks = 0
        while ticks < 5000:
            for record in records:
                monitor.push(record)
                ticks += 1
        assert monitor.counters.ticks == ticks
        assert monitor.counters.windows == ticks // meter.window
        assert len(monitor.decisions) == 4
        assert len(monitor.aggregator.recent) == 5


class TestAdaptation:
    def test_adapt_updates_tables_and_counts_steps(self, mini_pipeline, meter):
        run = mini_pipeline.test_run("ordering")
        adaptive = OnlineCapacityMonitor(copy.deepcopy(meter), adapt=True)
        for record in run.records:
            adaptive.push(record)
        assert adaptive.counters.adaptation_steps == adaptive.counters.windows
        # the frozen meter's tables were not touched
        frozen = OnlineCapacityMonitor(meter)
        for record in run.records:
            frozen.push(record)
        assert frozen.counters.adaptation_steps == 0


class TestAttach:
    def test_attach_streams_without_storing_the_run(
        self, meter, sim, website
    ):
        monitor = OnlineCapacityMonitor(meter, retain_decisions=2)
        rbe = RemoteBrowserEmulator(
            sim, website, ORDERING_MIX, think_time_mean=0.5, seed=3
        )
        rbe.set_population(6)
        sampler = monitor.attach(sim, website, workload="live", seed=3)
        sim.run(until=35.0)
        sampler.stop()
        assert sampler.run.records == []  # retain defaults to 0
        assert monitor.counters.ticks == 35
        assert monitor.counters.windows == 35 // meter.window
        assert len(monitor.decisions) <= 2

    def test_attach_samples_only_the_levels_read(self, meter, sim, website):
        monitor = OnlineCapacityMonitor(meter)
        sampler = monitor.attach(sim, website, retain=1)
        sim.run(until=3.0)
        sampler.stop()
        assert sampler.levels == monitor.levels == {HPC_LEVEL}
        assert sampler.run.records[-1].os == {}
        assert monitor.counters.pi_skipped_updates == 0

    @pytest.mark.parametrize(
        "level,track_pi,expected",
        [
            (HPC_LEVEL, True, {HPC_LEVEL}),
            (OS_LEVEL, False, {OS_LEVEL}),
            # the PI candidates (IPC over L2 miss rate / stall fraction)
            # are hardware counters whatever the meter reads
            (OS_LEVEL, True, {HPC_LEVEL, OS_LEVEL}),
            (HYBRID_LEVEL, False, {HPC_LEVEL, OS_LEVEL}),
        ],
    )
    def test_levels_cover_meter_and_pi(
        self, mini_pipeline, level, track_pi, expected
    ):
        monitor = OnlineCapacityMonitor(
            mini_pipeline.meter(level), track_pi=track_pi
        )
        assert monitor.levels == expected

    def test_summary_rows_render(self, mini_pipeline, meter):
        run = mini_pipeline.test_run("ordering")
        monitor = OnlineCapacityMonitor(meter)
        for record in run.records:
            monitor.push(record)
        rows = monitor.summary_rows()
        assert any("windows seen" in row for row in rows)
        assert any("best PI" in row for row in rows)
