"""Unit tests for telemetry sampling and window aggregation."""

import numpy as np
import pytest

from repro.simulator import AppServer, DatabaseServer, MultiTierWebsite, Simulator
from repro.telemetry.dataset import OVERLOAD, UNDERLOAD
from repro.telemetry.hpc import HPC_METRIC_NAMES
from repro.telemetry.osmetrics import OS_METRIC_NAMES
from repro.telemetry.sampler import (
    CONCRETE_LEVELS,
    HPC_LEVEL,
    HYBRID_LEVEL,
    OS_LEVEL,
    FleetSampler,
    IntervalRecord,
    TelemetrySampler,
    aggregate_window,
    build_dataset,
    concrete_levels,
)
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import ORDERING_MIX


@pytest.fixture
def sampled_run(sim, website):
    rbe = RemoteBrowserEmulator(
        sim, website, ORDERING_MIX, think_time_mean=0.5, seed=5
    )
    rbe.set_population(6)
    sampler = TelemetrySampler(sim, website, workload="probe", interval=1.0)
    sim.run(until=30.0)
    sampler.stop()
    return sampler.run


class TestTelemetrySampler:
    def test_one_record_per_interval(self, sampled_run):
        assert len(sampled_run) == 30
        assert sampled_run.duration == pytest.approx(30.0)

    def test_records_carry_both_levels_and_tiers(self, sampled_run):
        record = sampled_run.records[0]
        for tier in ("app", "db"):
            assert sorted(record.metrics(HPC_LEVEL, tier)) == sorted(
                HPC_METRIC_NAMES
            )
            assert sorted(record.metrics(OS_LEVEL, tier)) == sorted(
                OS_METRIC_NAMES
            )

    def test_unknown_level_raises(self, sampled_run):
        with pytest.raises(KeyError):
            sampled_run.records[0].metrics("quantum", "app")

    def test_stop_halts_collection(self, sim, website):
        sampler = TelemetrySampler(sim, website, interval=1.0)
        sim.run(until=5.0)
        sampler.stop()
        sim.run(until=10.0)
        assert len(sampler.run) == 5

    def test_invalid_interval_rejected(self, sim, website):
        with pytest.raises(ValueError):
            TelemetrySampler(sim, website, interval=0.0)

    def test_network_metrics_flow_to_tiers(self, sampled_run):
        total_db_rx = sum(
            r.metrics(OS_LEVEL, "db")["rxbyt_per_s"]
            for r in sampled_run.records
        )
        assert total_db_rx > 0  # queries crossed the link


class TestWindowAggregation:
    def test_window_stats_totals(self, sampled_run):
        stats = aggregate_window(sampled_run.records[:10])
        assert stats.t_start == pytest.approx(0.0)
        assert stats.t_end == pytest.approx(10.0)
        assert stats.completed > 0
        assert stats.throughput == pytest.approx(stats.completed / 10.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            aggregate_window([])

    def test_distress_and_bottleneck(self, sampled_run):
        stats = aggregate_window(sampled_run.records)
        assert set(stats.tier_distress) == {"app", "db"}
        assert stats.bottleneck in ("app", "db")


class TestBuildDataset:
    def test_window_count_and_schema(self, sampled_run):
        ds = build_dataset(
            sampled_run,
            level=HPC_LEVEL,
            tier="app",
            labeler=lambda stats: UNDERLOAD,
            window=10,
        )
        assert len(ds) == 3
        assert sorted(ds.attribute_names) == sorted(HPC_METRIC_NAMES)

    def test_partial_window_discarded(self, sampled_run):
        ds = build_dataset(
            sampled_run,
            level=HPC_LEVEL,
            tier="app",
            labeler=lambda stats: UNDERLOAD,
            window=7,
        )
        assert len(ds) == 4  # 30 // 7

    def test_labeler_applied(self, sampled_run):
        ds = build_dataset(
            sampled_run,
            level=OS_LEVEL,
            tier="db",
            labeler=lambda stats: OVERLOAD,
            window=10,
        )
        assert all(inst.label == OVERLOAD for inst in ds)
        assert all(inst.bottleneck is not None for inst in ds)

    def test_attributes_subset(self, sampled_run):
        ds = build_dataset(
            sampled_run,
            level=HPC_LEVEL,
            tier="app",
            labeler=lambda stats: UNDERLOAD,
            window=10,
            attributes=["ipc", "l2_miss_rate"],
        )
        assert ds.attribute_names == ["ipc", "l2_miss_rate"]

    def test_window_average_is_mean_of_intervals(self, sampled_run):
        ds = build_dataset(
            sampled_run,
            level=HPC_LEVEL,
            tier="app",
            labeler=lambda stats: UNDERLOAD,
            window=10,
        )
        manual = sum(
            r.metrics(HPC_LEVEL, "app")["ipc"]
            for r in sampled_run.records[:10]
        ) / 10.0
        assert ds[0].attributes["ipc"] == pytest.approx(manual)

    def test_invalid_window_rejected(self, sampled_run):
        with pytest.raises(ValueError):
            build_dataset(
                sampled_run,
                level=HPC_LEVEL,
                tier="app",
                labeler=lambda stats: UNDERLOAD,
                window=0,
            )

    def test_missing_attribute_names_interval(self, sampled_run):
        del sampled_run.records[7].hpc["app"]["ipc"]
        with pytest.raises(ValueError) as err:
            build_dataset(
                sampled_run,
                level=HPC_LEVEL,
                tier="app",
                labeler=lambda stats: UNDERLOAD,
                window=10,
            )
        assert "interval 7" in str(err.value)
        assert "'ipc'" in str(err.value)

    def test_extra_attribute_rejected_when_schema_inferred(self, sampled_run):
        sampled_run.records[3].hpc["app"]["bogus"] = 1.0
        with pytest.raises(ValueError) as err:
            build_dataset(
                sampled_run,
                level=HPC_LEVEL,
                tier="app",
                labeler=lambda stats: UNDERLOAD,
                window=10,
            )
        assert "interval 3" in str(err.value)
        assert "bogus" in str(err.value)

    def test_extra_attribute_tolerated_with_explicit_schema(self, sampled_run):
        sampled_run.records[3].hpc["app"]["bogus"] = 1.0
        ds = build_dataset(
            sampled_run,
            level=HPC_LEVEL,
            tier="app",
            labeler=lambda stats: UNDERLOAD,
            window=10,
            attributes=["ipc", "l2_miss_rate"],
        )
        assert len(ds) == 3

    def test_missing_attribute_with_explicit_schema_still_raises(
        self, sampled_run
    ):
        del sampled_run.records[12].hpc["app"]["l2_miss_rate"]
        with pytest.raises(ValueError) as err:
            build_dataset(
                sampled_run,
                level=HPC_LEVEL,
                tier="app",
                labeler=lambda stats: UNDERLOAD,
                window=10,
                attributes=["ipc", "l2_miss_rate"],
            )
        assert "interval 12" in str(err.value)


class TestStreamingSampler:
    def test_on_record_sees_every_tick(self, sim, website):
        seen = []
        sampler = TelemetrySampler(
            sim, website, interval=1.0, on_record=seen.append
        )
        sim.run(until=8.0)
        sampler.stop()
        assert len(seen) == 8
        assert seen == sampler.run.records

    def test_retain_bounds_the_run(self, sim, website):
        sampler = TelemetrySampler(sim, website, interval=1.0, retain=5)
        sim.run(until=20.0)
        sampler.stop()
        assert sampler.samples_taken == 20
        assert len(sampler.run.records) == 5
        assert sampler.run.records[-1].t_end == pytest.approx(20.0)

    def test_retain_zero_keeps_nothing(self, sim, website):
        seen = []
        sampler = TelemetrySampler(
            sim, website, interval=1.0, retain=0, on_record=seen.append
        )
        sim.run(until=6.0)
        sampler.stop()
        assert sampler.run.records == []
        assert len(seen) == 6

    def test_negative_retain_rejected(self, sim, website):
        with pytest.raises(ValueError):
            TelemetrySampler(sim, website, interval=1.0, retain=-1)


def sample_levels(**kwargs):
    """A busy site sampled for 20 s; the sampler, run retained."""
    sim = Simulator()
    website = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
    rbe = RemoteBrowserEmulator(
        sim, website, ORDERING_MIX, think_time_mean=0.5, seed=5
    )
    rbe.set_population(6)
    sampler = TelemetrySampler(sim, website, seed=4, **kwargs)
    sim.run(until=20.0)
    sampler.stop()
    return sampler


class TestLevelGating:
    """A sampler synthesizes only the levels its consumer reads."""

    @pytest.fixture(scope="class")
    def both(self):
        return sample_levels().run.records

    def test_default_synthesizes_both_levels(self, both):
        assert sorted(sample_levels().levels) == sorted(CONCRETE_LEVELS)
        assert all(r.hpc and r.os for r in both)

    @pytest.mark.parametrize("kept,dropped", [("hpc", "os"), ("os", "hpc")])
    def test_one_level_equals_its_half_of_both(self, both, kept, dropped):
        """Each level draws from its own generators, so leaving one out
        changes no value of the other — nor the website samples."""
        sampler = sample_levels(levels=[kept])
        records = sampler.run.records
        assert sampler.levels == frozenset([kept])
        assert [getattr(r, kept) for r in records] == [
            getattr(r, kept) for r in both
        ]
        assert all(getattr(r, dropped) == {} for r in records)
        assert [r.website for r in records] == [r.website for r in both]

    def test_no_os_models_without_os(self):
        sampler = sample_levels(levels=[HPC_LEVEL])
        assert sampler._os_models == {}
        assert sorted(sampler._hpc_models) == ["app", "db"]

    @pytest.mark.parametrize("levels", [[], ["quantum"], [HYBRID_LEVEL]])
    def test_rejects_empty_or_unknown_levels(self, sim, website, levels):
        with pytest.raises(ValueError, match="levels"):
            TelemetrySampler(sim, website, levels=levels)

    def test_concrete_levels(self):
        assert concrete_levels(HPC_LEVEL) == (HPC_LEVEL,)
        assert concrete_levels(OS_LEVEL) == (OS_LEVEL,)
        assert concrete_levels(HYBRID_LEVEL) == CONCRETE_LEVELS
        with pytest.raises(ValueError):
            concrete_levels("quantum")


class TestHybridLevel:
    """Paper Section VII future work: combined OS + HPC attributes."""

    def test_hybrid_metrics_are_prefixed_union(self, sampled_run):
        from repro.telemetry.sampler import HYBRID_LEVEL

        record = sampled_run.records[0]
        hybrid = record.metrics(HYBRID_LEVEL, "db")
        assert len(hybrid) == len(HPC_METRIC_NAMES) + len(OS_METRIC_NAMES)
        assert hybrid["hpc.ipc"] == record.metrics(HPC_LEVEL, "db")["ipc"]
        assert hybrid["os.runq_sz"] == record.metrics(OS_LEVEL, "db")["runq_sz"]

    def test_hybrid_dataset_builds(self, sampled_run):
        from repro.telemetry.sampler import HYBRID_LEVEL

        ds = build_dataset(
            sampled_run,
            level=HYBRID_LEVEL,
            tier="app",
            labeler=lambda stats: UNDERLOAD,
            window=10,
        )
        assert len(ds) == 3
        assert any(name.startswith("hpc.") for name in ds.attribute_names)
        assert any(name.startswith("os.") for name in ds.attribute_names)


class _Replay:
    """A website replaying recorded samples: ``tiers`` and ``sample()``."""

    def __init__(self, tiers, samples, offset):
        self.tiers = tiers
        self._samples = samples
        self._next = offset

    def sample(self):
        current = self._samples[self._next % len(self._samples)]
        self._next += 1
        return current


def assert_same_record(got, want):
    assert got.website is want.website
    assert got.os == want.os == {}
    assert list(got.hpc) == list(want.hpc)
    for tier, metrics in want.hpc.items():
        assert list(got.hpc[tier]) == list(metrics) == HPC_METRIC_NAMES
        got_bits = np.array(list(got.hpc[tier].values())).view(np.uint64)
        want_bits = np.array(list(metrics.values())).view(np.uint64)
        assert got_bits.tolist() == want_bits.tolist()


class TestFleetSampler:
    """One pass over many websites builds, row by row, the record each
    website's own hpc-level sampler builds, from the same seeds."""

    SEEDS = (7, 12345, 0, 3)

    def test_recorded_websites_match_own_samplers(self, sim, website, mini_pipeline):
        records = mini_pipeline.test_run("browsing").records[:60]
        samples = [record.website for record in records]

        def websites():
            return [
                _Replay(website.tiers, samples, 13 * k) for k in range(len(self.SEEDS))
            ]

        own = [
            TelemetrySampler(
                sim, replay, interval=1.0, seed=seed, retain=1, levels=(HPC_LEVEL,)
            )
            for replay, seed in zip(websites(), self.SEEDS)
        ]
        fleet = FleetSampler(websites(), self.SEEDS, hpc_noise=0.03)
        models = [model for sampler in own for model in sampler._hpc_models.values()]
        for second in range(1, 81):
            sim.run(until=float(second))
            tick = fleet.sample()
            assert tick.tiers == tuple(website.tiers) and not tick.odd
            for row, sampler in enumerate(own):
                assert_same_record(tick.record(row), sampler.run.records[-1])
            for model, twin in zip(models, fleet.block.models):
                assert model._rng.bit_generator.state == twin._rng.bit_generator.state

    def test_simulated_websites_match_own_samplers(self):
        """Two identical simulations: one sampled per site, one by the
        fleet sampler from a timer of its own."""

        def build():
            sim = Simulator()
            sites = []
            for k, seed in enumerate(self.SEEDS):
                site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
                rbe = RemoteBrowserEmulator(
                    sim, site, ORDERING_MIX, think_time_mean=0.5, seed=seed
                )
                rbe.set_population(10 + 15 * k)
                sites.append(site)
            return sim, sites

        sim_a, sites_a = build()
        own = [
            TelemetrySampler(
                sim_a, site, interval=1.0, seed=seed, retain=1, levels=(HPC_LEVEL,)
            )
            for site, seed in zip(sites_a, self.SEEDS)
        ]
        sim_b, sites_b = build()
        fleet = FleetSampler(sites_b, self.SEEDS)
        ticks = []
        sim_b.every(1.0, lambda: ticks.append(fleet.sample()))
        for second in range(1, 31):
            sim_a.run(until=float(second))
            sim_b.run(until=float(second))
            tick = ticks[-1]
            for row, sampler in enumerate(own):
                want = sampler.run.records[-1]
                got = tick.record(row)
                assert got.website == want.website
                assert_same_record(
                    IntervalRecord(website=want.website, hpc=got.hpc, os={}), want
                )

    def test_websites_must_share_tiers(self, sim, website):
        other = _Replay({"app": website.tiers["app"]}, [], 0)
        with pytest.raises(ValueError):
            FleetSampler([website, other], [1, 2])
        with pytest.raises(ValueError):
            FleetSampler([website], [1, 2])
