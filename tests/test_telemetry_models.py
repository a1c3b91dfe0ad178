"""Unit tests for the HPC and OS metric synthesis models."""

import numpy as np
import pytest

from repro.simulator.appserver import PENTIUM4_SPEC
from repro.simulator.database import PENTIUMD_SPEC
from repro.simulator.server import TierSample
from repro.telemetry.hpc import (
    HPC_METRIC_NAMES,
    OBSERVED_FIELDS,
    HpcBlock,
    HpcModel,
    _ArchParams,
)
from repro.telemetry.osmetrics import OS_METRIC_NAMES, OsMetricsModel


def make_sample(
    *,
    duration=1.0,
    completed=30,
    work=0.5,
    busy=0.8,
    runnable=2.0,
    miss=0.05,
    threads=5.0,
    queue=0.0,
    background=0.0,
    workers=80,
    cores=1,
):
    return TierSample(
        tier="app",
        t_start=0.0,
        t_end=duration,
        completed=completed,
        work_done=work,
        background_work=background,
        core_busy_time=busy * duration * cores,
        runnable_avg=runnable,
        threads_avg=threads,
        queue_avg=queue,
        miss_rate_avg=miss,
        cores=cores,
        workers=workers,
    )


class TestHpcModel:
    def test_emits_full_vocabulary(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        metrics = model.observe(make_sample())
        assert sorted(metrics) == sorted(HPC_METRIC_NAMES)

    def test_ipc_is_instructions_over_cycles(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        metrics = model.observe(make_sample(work=0.5, busy=0.8))
        expected = (0.5 * PENTIUM4_SPEC.instructions_per_work) / (
            0.8 * PENTIUM4_SPEC.frequency_ghz * 1e9
        )
        assert metrics["ipc"] == pytest.approx(expected)

    def test_ipc_falls_when_work_stalls(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        healthy = model.observe(make_sample(work=0.8, busy=0.8))
        thrashing = model.observe(make_sample(work=0.3, busy=1.0))
        assert thrashing["ipc"] < healthy["ipc"]

    def test_l2_miss_rate_passthrough(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        metrics = model.observe(make_sample(miss=0.3))
        assert metrics["l2_miss_rate"] == pytest.approx(0.3)

    def test_stall_fraction_grows_with_misses(self):
        model = HpcModel(PENTIUMD_SPEC, noise=0.0)
        low = model.observe(make_sample(miss=0.03, cores=2))
        high = model.observe(make_sample(miss=0.4, cores=2))
        assert high["stall_fraction"] > low["stall_fraction"]

    def test_stall_cycles_never_exceed_cycles(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        metrics = model.observe(make_sample(miss=0.5, work=2.0, busy=1.0))
        assert metrics["stall_cycles"] <= metrics["cycles"]

    def test_branch_misses_respond_to_thread_churn(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        calm = model.observe(make_sample(runnable=1.0))
        stormy = model.observe(make_sample(runnable=80.0))
        assert stormy["branch_miss_rate"] > calm["branch_miss_rate"]

    def test_background_work_counts_as_instructions(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        without = model.observe(make_sample(work=0.5, background=0.0))
        with_bg = model.observe(make_sample(work=0.5, background=0.2))
        assert with_bg["instructions"] > without["instructions"]

    def test_idle_sample_yields_zero_ipc(self):
        model = HpcModel(PENTIUM4_SPEC, noise=0.0)
        metrics = model.observe(make_sample(work=0.0, busy=0.0, completed=0))
        assert metrics["ipc"] == 0.0
        assert metrics["cycles"] == 0.0

    def test_noise_is_reproducible_per_seed(self):
        sample = make_sample()
        a = HpcModel(PENTIUM4_SPEC, noise=0.05, seed=4).observe(sample)
        b = HpcModel(PENTIUM4_SPEC, noise=0.05, seed=4).observe(sample)
        assert a == b

    def test_noise_perturbs_values(self):
        sample = make_sample()
        clean = HpcModel(PENTIUM4_SPEC, noise=0.0).observe(sample)
        noisy = HpcModel(PENTIUM4_SPEC, noise=0.05, seed=1).observe(sample)
        assert clean["instructions"] != noisy["instructions"]

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            HpcModel(PENTIUM4_SPEC, noise=-0.1)


def scalar_noise_reference(model, sample):
    """The scalar per-counter noise loop ``observe`` replaced.

    One ``lognormal`` draw per nonzero counter in dict order, zero
    counters and ``noise=0`` left untouched — the reference the single
    vector draw must reproduce value for value, generator state
    included.
    """
    noise = model.noise
    model.noise = 0.0
    try:
        raw = model.observe(sample)
    finally:
        model.noise = noise

    def noisy(value):
        if noise <= 0 or value == 0.0:
            return value
        return float(value * model._rng.lognormal(0.0, noise))

    return {name: noisy(value) for name, value in raw.items()}


class TestCounterNoiseReference:
    SAMPLES = (
        make_sample(),
        make_sample(miss=0.4, runnable=40.0, background=0.1),
        # an idle tier: most counters are zero and skip their draw
        make_sample(work=0.0, busy=0.0, completed=0),
        make_sample(work=2.0, busy=1.0, cores=2),
    )

    @pytest.mark.parametrize("noise", [0.0, 0.03, 0.25])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_vector_draw_equals_scalar_loop(self, noise, seed):
        model = HpcModel(PENTIUM4_SPEC, noise=noise, seed=seed)
        reference = HpcModel(PENTIUM4_SPEC, noise=noise, seed=seed)
        for sample in self.SAMPLES * 3:
            got = model.observe(sample)
            want = scalar_noise_reference(reference, sample)
            assert got == want
            assert list(got) == list(want)
            assert all(type(value) is float for value in got.values())
            assert (
                model._rng.bit_generator.state
                == reference._rng.bit_generator.state
            )

    def test_all_zero_counters_draw_nothing(self):
        """No branch-miss floor and no work: every counter is zero, the
        vector draw is empty and the generator does not move."""
        arch = _ArchParams(base_branch_miss=0.0)
        model = HpcModel(PENTIUM4_SPEC, noise=0.03, seed=3, arch=arch)
        before = model._rng.bit_generator.state
        metrics = model.observe(
            make_sample(work=0.0, busy=0.0, completed=0, runnable=0.0, miss=0.0)
        )
        assert set(metrics.values()) == {0.0}
        assert model._rng.bit_generator.state == before


class TestOsMetricsModel:
    def test_emits_exactly_64_metrics(self):
        assert len(OS_METRIC_NAMES) == 64
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        metrics = model.observe(make_sample())
        assert sorted(metrics) == sorted(OS_METRIC_NAMES)

    def test_cpu_percentages_sum_to_about_100(self):
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        metrics = model.observe(make_sample(busy=0.6))
        total = (
            metrics["cpu_user"]
            + metrics["cpu_nice"]
            + metrics["cpu_system"]
            + metrics["cpu_iowait"]
            + metrics["cpu_idle"]
        )
        assert total == pytest.approx(100.0, abs=2.0)

    def test_utilization_clips_at_100(self):
        """The key observability gap: OS cannot see past saturation."""
        model = OsMetricsModel(PENTIUMD_SPEC, role="db", noise=0.0)
        saturated = model.observe(make_sample(busy=1.0, cores=2))
        beyond = model.observe(make_sample(busy=1.0, cores=2, queue=50.0))
        assert saturated["cpu_idle"] == pytest.approx(beyond["cpu_idle"], abs=0.5)

    def test_internal_queue_invisible_to_os(self):
        model = OsMetricsModel(PENTIUMD_SPEC, role="db", noise=0.0)
        quiet = model.observe(make_sample(runnable=24.0, queue=0.0, cores=2))
        jammed = model.observe(make_sample(runnable=24.0, queue=60.0, cores=2))
        assert quiet["runq_sz"] == pytest.approx(jammed["runq_sz"], abs=0.05)

    def test_runq_tracks_runnable_threads(self):
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        calm = model.observe(make_sample(runnable=1.0))
        busy = model.observe(make_sample(runnable=60.0))
        assert busy["runq_sz"] > calm["runq_sz"] + 50

    def test_ldavg_is_smoothed(self):
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        first = model.observe(make_sample(runnable=60.0))
        assert first["ldavg_1"] < 60.0
        for _ in range(600):
            last = model.observe(make_sample(runnable=60.0))
        assert last["ldavg_1"] == pytest.approx(60.0, rel=0.05)

    def test_plist_reflects_pool_not_load(self):
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        idle = model.observe(make_sample(threads=1.0, workers=80))
        slammed = model.observe(make_sample(threads=79.0, workers=80))
        assert idle["plist_sz"] == pytest.approx(slammed["plist_sz"], abs=0.05)

    def test_monitoring_cost_shows_in_system_time(self):
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        clean = model.observe(make_sample(background=0.0))
        loaded = model.observe(make_sample(background=0.05))
        assert loaded["cpu_system"] > clean["cpu_system"]

    def test_network_rates_passthrough(self):
        model = OsMetricsModel(PENTIUM4_SPEC, role="app", noise=0.0)
        metrics = model.observe(
            make_sample(), rx_bytes_per_s=1234.0, tx_bytes_per_s=99.0
        )
        assert metrics["rxbyt_per_s"] == pytest.approx(1234.0, abs=1.0)
        assert metrics["txbyt_per_s"] == pytest.approx(99.0, abs=1.0)

    def test_no_swap_activity(self):
        model = OsMetricsModel(PENTIUMD_SPEC, role="db", noise=0.0)
        metrics = model.observe(make_sample(queue=100.0))
        assert metrics["pswpin_per_s"] == pytest.approx(0.0, abs=0.02)
        assert metrics["pct_swpused"] == pytest.approx(0.0, abs=0.02)

    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            OsMetricsModel(PENTIUM4_SPEC, role="cache")


def block_samples(samples, pairs):
    """``samples`` cut into ticks of ``pairs`` tier samples."""
    return [samples[k : k + pairs] for k in range(0, len(samples) - pairs + 1, pairs)]


def observed_fields(samples):
    return np.array(
        [[getattr(sample, name) for name in OBSERVED_FIELDS] for sample in samples],
        dtype=float,
    )


def edge_samples():
    """Inputs where Python's scalar rules and numpy's part ways."""
    nan = float("nan")
    tier = dict(tier="db", completed=3, cores=2, workers=20)
    return [
        # an idle tier: most counters are zero and skip their draw
        make_sample(work=0.0, busy=0.0, completed=0),
        make_sample(work=0.0, busy=0.0, completed=0, runnable=0.0, miss=0.0),
        # zero and negative duration: observe divides by 1e-9
        TierSample(t_start=5.0, t_end=5.0, core_busy_time=0.4, work_done=0.3, **tier),
        TierSample(t_start=5.0, t_end=4.0, core_busy_time=0.4, work_done=0.3, **tier),
        # zero work, zero miss rate, zero runnable
        make_sample(work=0.0, background=0.0),
        make_sample(miss=0.0),
        make_sample(runnable=0.0),
        # NaN inputs: min(0.2, NaN) is 0.2, max(NaN, 1e-9) is NaN
        make_sample(runnable=nan),
        make_sample(miss=nan),
        make_sample(busy=nan),
        make_sample(work=nan),
        TierSample(t_start=0.0, t_end=nan, core_busy_time=0.4, work_done=0.3, **tier),
        # -0.0 busy time: min(0.0, -0.0) keeps 0.0, np.minimum gives -0.0
        TierSample(t_start=0.0, t_end=1.0, core_busy_time=-0.0, **tier),
        make_sample(runnable=500.0, miss=0.9),
    ]


class TestHpcBlock:
    """One array pass over many models equals each model's observe, bit
    for bit, generator state included."""

    @staticmethod
    def assert_block_matches(samples_by_tick, models, twins):
        block = HpcBlock(twins)
        for samples in samples_by_tick:
            got = block.observe(observed_fields(samples))
            for row, (model, twin, sample) in enumerate(zip(models, twins, samples)):
                want = model.observe(sample)
                assert list(want) == HPC_METRIC_NAMES
                expected = np.array(list(want.values()), dtype=float)
                assert got[row].view(np.uint64).tolist() == expected.view(
                    np.uint64
                ).tolist(), (row, sample)
                assert (
                    twin._rng.bit_generator.state
                    == model._rng.bit_generator.state
                )

    @staticmethod
    def models(pairs, noise):
        specs = (PENTIUM4_SPEC, PENTIUMD_SPEC)
        return [
            HpcModel(specs[p % 2], noise=noise, seed=1000 * p + p % 2)
            for p in range(pairs)
        ]

    @pytest.mark.parametrize("noise", [0.0, 0.03, 0.25])
    def test_recorded_samples(self, mini_pipeline, noise):
        records = mini_pipeline.test_run("interleaved").records[:120]
        samples = [
            tier for record in records for tier in record.website.tiers.values()
        ]
        self.assert_block_matches(
            block_samples(samples, 16), self.models(16, noise), self.models(16, noise)
        )

    @pytest.mark.parametrize("noise", [0.0, 0.03])
    def test_simulated_samples(self, sim, website, noise):
        from repro.workload.rbe import RemoteBrowserEmulator
        from repro.workload.tpcw import ORDERING_MIX

        rbe = RemoteBrowserEmulator(
            sim, website, ORDERING_MIX, think_time_mean=0.5, seed=5
        )
        rbe.set_population(30)
        samples = []
        for second in range(1, 41):
            sim.run(until=float(second))
            samples.extend(website.sample().tiers.values())
        self.assert_block_matches(
            block_samples(samples, 8), self.models(8, noise), self.models(8, noise)
        )

    @pytest.mark.parametrize("noise", [0.0, 0.03])
    def test_edge_cases(self, noise):
        edges = edge_samples()
        rng = np.random.default_rng(11)
        ticks = [
            [edges[k] for k in rng.integers(len(edges), size=len(edges))]
            for _ in range(200)
        ]
        ticks.insert(0, edges)
        pairs = len(edges)
        self.assert_block_matches(
            ticks, self.models(pairs, noise), self.models(pairs, noise)
        )

    def test_models_without_noise_draw_nothing(self):
        """Rows at noise 0 draw nothing; the rest draw as before."""
        noises = [0.0, 0.03, 0.0, 0.1]

        def models():
            return [
                HpcModel(PENTIUM4_SPEC, noise=noise, seed=p)
                for p, noise in enumerate(noises)
            ]

        samples = [make_sample(), make_sample(miss=0.2), make_sample(), make_sample()]
        self.assert_block_matches([samples] * 5, models(), models())

    def test_models_must_share_arch(self):
        with pytest.raises(ValueError):
            HpcBlock(
                [
                    HpcModel(PENTIUM4_SPEC),
                    HpcModel(PENTIUM4_SPEC, arch=_ArchParams(base_branch_miss=0.0)),
                ]
            )
        with pytest.raises(ValueError):
            HpcBlock([])
