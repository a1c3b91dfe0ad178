"""Tests for the self-observability layer (``repro.obs``).

Three levels of guarantee:

* registry/sink semantics — Prometheus-style counters, gauges and
  fixed-bucket histograms, text exposition, JSONL round-trips;
* the disabled layer is invisible — a fixed-seed monitor run produces
  the identical decision sequence with instrumentation on and off, and
  an off run records nothing at all;
* the hot-path handle caches (monitor/coordinator/synopsis/stream)
  revalidate against the live registry, so swapping or resetting the
  global :data:`~repro.obs.OBS` redirects samples instead of silently
  writing into a dropped registry.
"""

import functools
import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.control import CapacityService, FleetState, SiteSpec
from repro.core.monitor import OnlineCapacityMonitor
from repro.faults import FaultPlan, FaultSpec
from repro.faults.campaign import decision_signature
from repro.obs import (
    DEFAULT_BUCKETS,
    OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopSpan,
    Observability,
    SPAN_METRIC,
    exposition,
    registry_from_jsonl,
    snapshot_lines,
    write_snapshot,
)
from repro.obs.overhead import measure_decision_overhead
from repro.obs.registry import label_key
from repro.telemetry.sampler import HPC_LEVEL
from tests.conftest import MINI_WINDOW, attach_busy_sites, pin_path


@pytest.fixture(autouse=True)
def _isolate_global_obs():
    """Every test sees the default (disabled, empty) singleton."""
    OBS.reset()
    yield
    OBS.reset()


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("requests").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("inflight")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        h = Histogram("lat", bounds=(0.1, 1.0, 10.0))
        h.observe(0.05)   # <= 0.1
        h.observe(0.1)    # == bound: still the 0.1 bucket (le semantics)
        h.observe(0.5)    # <= 1.0
        h.observe(99.0)   # above all bounds -> +Inf slot
        assert h.counts == [2, 1, 0, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(99.65)

    def test_cumulative_includes_inf(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.cumulative() == [1, 2, 3]

    def test_bounds_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))


class TestLabelKey:
    def test_single_label_fast_path_matches_general_path(self):
        assert label_key({"tier": "db"}) == (("tier", "db"),)

    def test_multi_label_sets_are_order_independent(self):
        assert label_key({"b": 2, "a": 1}) == label_key({"a": 1, "b": 2})
        assert label_key({"a": 1, "b": 2}) == (("a", "1"), ("b", "2"))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_child(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")
        assert len(reg) == 1

    def test_labelled_children_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("hits", tier="app").inc()
        reg.counter("hits", tier="db").inc(2)
        assert reg.value("hits", tier="app") == 1.0
        assert reg.value("hits", tier="db") == 2.0
        assert len(reg.children("hits")) == 2

    def test_name_binds_kind(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")
        with pytest.raises(ValueError):
            reg.histogram("m")
        reg.gauge("g", tier="app")
        with pytest.raises(ValueError):
            reg.counter("g", tier="app")

    def test_histogram_bounds_are_fixed_after_creation(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        assert reg.histogram("lat") is reg.histogram("lat")
        with pytest.raises(ValueError):
            reg.histogram("lat", buckets=(0.5, 1.0))

    def test_default_buckets_used_when_unspecified(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat").bounds == DEFAULT_BUCKETS

    def test_help_binds_at_child_creation(self):
        reg = MetricsRegistry()
        reg.counter("m", help="first creation wins")
        reg.counter("m", help="the hit fast path skips help entirely")
        assert reg.help_for("m") == "first creation wins"
        # a new labelled child re-enters the creation path but the
        # recorded help still never gets overwritten
        reg.counter("m", help="still ignored", tier="db")
        assert reg.help_for("m") == "first creation wins"

    def test_get_and_value_never_create(self):
        reg = MetricsRegistry()
        assert reg.get("absent") is None
        assert reg.value("absent") == 0.0
        assert len(reg) == 0

    def test_clear_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("m").inc()
        reg.clear()
        assert len(reg) == 0
        assert reg.names() == []


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_hits_total", help="hits by tier", tier="db").inc(3)
    reg.gauge("repro_load").set(0.75)
    h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(5.0)
    return reg


class TestExposition:
    def test_text_format_shape(self):
        text = exposition(_sample_registry())
        assert "# HELP repro_hits_total hits by tier" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{tier="db"} 3' in text
        assert "repro_load 0.75" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_sum 5.05" in text
        assert "repro_lat_seconds_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert exposition(MetricsRegistry()) == ""


class TestJsonlRoundTrip:
    def test_snapshot_rebuilds_identical_state(self, tmp_path):
        reg = _sample_registry()
        log = tmp_path / "metrics.jsonl"
        with open(log, "w") as fh:
            count = write_snapshot(reg, fh)
        assert count == len(snapshot_lines(reg))

        rebuilt = registry_from_jsonl(log)
        assert exposition(rebuilt) == exposition(reg)

    def test_span_events_are_skipped_and_last_snapshot_wins(self, tmp_path):
        log = tmp_path / "metrics.jsonl"
        first = MetricsRegistry()
        first.counter("repro_hits_total").inc(1)
        second = MetricsRegistry()
        second.counter("repro_hits_total").inc(7)
        with open(log, "w") as fh:
            write_snapshot(first, fh)
            fh.write(
                json.dumps(
                    {"event": "span", "name": "x", "seconds": 0.1}
                )
                + "\n"
            )
            write_snapshot(second, fh)

        rebuilt = registry_from_jsonl(log)
        assert rebuilt.value("repro_hits_total") == 7.0
        assert SPAN_METRIC not in rebuilt.names()


# ----------------------------------------------------------------------
# the Observability switch
# ----------------------------------------------------------------------
class TestObservability:
    def test_disabled_by_default_and_span_is_shared_noop(self):
        obs = Observability()
        assert not obs.enabled
        assert obs.span("x") is obs.span("y")
        assert isinstance(obs.span("x"), NoopSpan)

    def test_span_records_into_registry_when_enabled(self):
        obs = Observability()
        obs.enable()
        with obs.span("section"):
            pass
        child = obs.registry.get(SPAN_METRIC, span="section")
        assert child is not None and child.count == 1

    def test_observe_span_cache_survives_registry_swap(self):
        obs = Observability()
        obs.enable()
        obs.observe_span("s", 0.01)
        first = obs.registry
        obs.registry = MetricsRegistry()
        obs.observe_span("s", 0.02)
        assert first.get(SPAN_METRIC, span="s").count == 1
        assert obs.registry.get(SPAN_METRIC, span="s").count == 1

    def test_event_sink_receives_live_span_lines(self, tmp_path):
        log = tmp_path / "events.jsonl"
        obs = Observability()
        obs.enable(events=log)
        obs.observe_span("timed", 0.005)
        obs.disable()  # closes the owned stream
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events == [
            {"event": "span", "name": "timed", "seconds": 0.005}
        ]

    def test_dump_selects_shape_by_suffix(self, tmp_path):
        obs = Observability()
        obs.enable()
        obs.inc("repro_hits_total", 2)
        prom = obs.dump(tmp_path / "metrics.prom")
        assert "repro_hits_total 2" in prom.read_text()
        jsonl = obs.dump(tmp_path / "metrics.jsonl")
        rebuilt = registry_from_jsonl(jsonl)
        assert rebuilt.value("repro_hits_total") == 2.0

    def test_reset_disables_and_drops_state(self):
        obs = Observability()
        obs.enable()
        obs.inc("m")
        obs.reset()
        assert not obs.enabled
        assert len(obs.registry) == 0


# ----------------------------------------------------------------------
# instrumented decision path (fixed seed)
# ----------------------------------------------------------------------
class TestMonitorInstrumentation:
    @pytest.fixture(scope="class")
    def meter(self, mini_pipeline):
        return mini_pipeline.meter(HPC_LEVEL)

    @pytest.fixture(scope="class")
    def records(self, mini_pipeline):
        return mini_pipeline.test_run("ordering").records

    def _replay(self, meter, records):
        monitor = OnlineCapacityMonitor(meter)
        for record in records:
            monitor.push(record)
        return monitor

    def test_disabled_layer_records_nothing(self, meter, records):
        assert not OBS.enabled
        self._replay(meter, records)
        assert len(OBS.registry) == 0

    def test_enabled_layer_emits_expected_series(self, meter, records):
        OBS.enable()
        monitor = self._replay(meter, records)
        reg = OBS.registry
        names = set(reg.names())
        assert {
            "repro_monitor_windows_total",
            "repro_monitor_ticks_total",
            "repro_monitor_overload_ba",
            SPAN_METRIC,
        } <= names
        windows = monitor.counters.windows
        assert reg.value("repro_monitor_windows_total") == windows
        # ticks are flushed once per completed window
        assert reg.value("repro_monitor_ticks_total") == windows * meter.window
        span = reg.get(SPAN_METRIC, span="monitor_decide")
        assert span is not None and span.count == windows
        ba = reg.value("repro_monitor_overload_ba")
        assert 0.0 <= ba <= 1.0 and not math.isnan(ba)

    def test_decisions_identical_with_layer_on_and_off(self, meter, records):
        off = self._replay(meter, records)
        OBS.enable()
        on = self._replay(meter, records)
        assert decision_signature(list(off.decisions)) == decision_signature(
            list(on.decisions)
        )

    def test_handle_cache_follows_registry_swap(self, meter, records):
        """A monitor outliving an OBS.reset() writes to the new registry."""
        OBS.enable()
        monitor = OnlineCapacityMonitor(meter)
        for record in records:
            monitor.push(record)
        first_windows = OBS.registry.value("repro_monitor_windows_total")
        assert first_windows > 0

        OBS.reset()
        OBS.enable()  # fresh registry, same live monitor
        for record in records:
            monitor.push(record)
        assert OBS.registry.value("repro_monitor_windows_total") == first_windows


#: two clean sites, dropout plus a database stall, and lost and
#: duplicated records: every way a site leaves or skips the stack
OBSERVED_SPECS = (
    SiteSpec(name="clean", seed=1),
    SiteSpec(name="clean2", seed=2),
    SiteSpec(
        name="faulty",
        seed=3,
        plan=FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="dropout", probability=0.2),
                FaultSpec(kind="stall", tier="db", start=40, end=41),
            ),
        ),
    ),
    SiteSpec(
        name="lossy",
        seed=4,
        plan=FaultPlan(
            seed=9,
            faults=(
                FaultSpec(kind="drop_record", probability=0.1),
                FaultSpec(kind="duplicate_record", probability=0.1),
            ),
        ),
    ),
)


class TestObsOnlyObserves:
    """Turning ``repro.obs`` on changes what is recorded, never the path
    a service folds and decides on, nor anything it decides."""

    @pytest.fixture(scope="class")
    def meter(self, mini_pipeline):
        return mini_pipeline.meter(HPC_LEVEL)

    @pytest.fixture(scope="class")
    def records(self, mini_pipeline):
        return mini_pipeline.test_run("ordering").records[:80]

    def _serve(self, meter, records, patch, *, mode, stacked, obs):
        """Outcome per site, the registry (or None) and the sites the
        stack detached while serving."""
        pin_path(patch, stacked=stacked, sites=len(OBSERVED_SPECS))
        detached = []
        detach = FleetState._detach

        def spy(fleet, i):
            detached.append(fleet.monitors[i])
            detach(fleet, i)

        patch.setattr(FleetState, "_detach", spy)
        registry = MetricsRegistry() if obs else None
        if registry is not None:
            OBS.enable(registry=registry)
        decisions = []
        try:
            service = CapacityService(
                meter,
                list(OBSERVED_SPECS),
                on_decision=lambda name, d: decisions.append((name, d)),
            )
            if mode == "replay":
                service.replay(records)
            else:
                attach_busy_sites(service).run(until=MINI_WINDOW * 6 + 1)
                service.stop()
        finally:
            OBS.reset()
        assert service.fleet.stacks == stacked
        outcome = {
            site.name: (
                [repr(d) for name, d in decisions if name == site.name],
                json.dumps(site.monitor.state_dict(), sort_keys=True),
                site.monitor.meter.coordinator.table_state(),
                site.gate.state_dict(),
            )
            for site in service.sites
        }
        names = [
            site.name for site in service.sites if site.monitor in detached
        ]
        return outcome, registry, names

    @staticmethod
    def _series(registry):
        """Every exposition line but the span histograms'."""
        return sorted(
            line
            for line in exposition(registry).splitlines()
            if SPAN_METRIC not in line
        )

    @pytest.mark.parametrize("mode", ["replay", "live"])
    def test_obs_only_observes(self, meter, records, monkeypatch, mode):
        serve = functools.partial(
            self._serve, meter, records, monkeypatch, mode=mode
        )
        quiet, _, quiet_detached = serve(stacked=True, obs=False)
        stacked, on, on_detached = serve(stacked=True, obs=True)
        per_site, reference, _ = serve(stacked=False, obs=True)
        assert quiet == stacked == per_site
        assert stacked["clean"][0]
        # the clean sites never leave the stack, observed or not
        assert on_detached == quiet_detached
        assert "clean" not in on_detached and "clean2" not in on_detached
        assert self._series(on) == self._series(reference)
        assert on.value("repro_monitor_windows_total") == sum(
            len(outcome[0]) for outcome in stacked.values()
        )
        for span in ("fleet_fold", "fleet_decide"):
            assert on.get(SPAN_METRIC, span=span).count > 0
            assert reference.get(SPAN_METRIC, span=span) is None
        assert reference.get(SPAN_METRIC, span="monitor_decide").count > 0
        assert "site_decide" not in exposition(on)
        if mode == "live":
            # every site here reads only hardware counters: the stacked
            # service samples them all in one pass per tick and counts
            # each site's interval as its own sampler would
            ticks = on.value("repro_sampler_ticks_total")
            assert ticks == reference.value("repro_sampler_ticks_total")
            assert ticks == len(OBSERVED_SPECS) * (MINI_WINDOW * 6 + 1)
            fleet_sample = on.get(SPAN_METRIC, span="fleet_sample")
            assert fleet_sample.count == MINI_WINDOW * 6 + 1
            assert on.get(SPAN_METRIC, span="sampler_tick") is None
            assert reference.get(SPAN_METRIC, span="fleet_sample") is None
            assert reference.get(SPAN_METRIC, span="sampler_tick").count == ticks


class TestOverheadSelfMeasurement:
    def test_report_shape_and_identical_decisions(self, mini_pipeline):
        meter = mini_pipeline.meter(HPC_LEVEL)
        records = mini_pipeline.test_run("ordering").records
        report = measure_decision_overhead(
            meter, records, repeats=1, passes=1
        )
        assert report.identical_decisions
        assert report.records == len(records)
        assert report.windows > 0
        assert report.metrics_collected > 0
        assert report.off_seconds > 0 and report.on_seconds > 0
        assert any("overhead" in row for row in report.rows())
        # the measurement restores the global switch it toggled
        assert not OBS.enabled


# ----------------------------------------------------------------------
# benchmark baseline comparator
# ----------------------------------------------------------------------
def _load_comparator():
    path = (
        Path(__file__).parent.parent / "benchmarks" / "compare_baselines.py"
    )
    spec = importlib.util.spec_from_file_location("compare_baselines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def comparator():
    return _load_comparator()


def _write_artifacts(
    results: Path,
    *,
    svm_ms=19.1,
    browsing_ba=0.832,
    cpu_count=1,
    parallel_speedup=1.02,
    fleet_speedup=7.84,
    shard_speedup=2.4,
):
    results.mkdir(parents=True, exist_ok=True)
    (results / "decision_time.txt").write_text(
        "Build+decide time (75 instances x 16 attrs, best of 3):\n"
        "Learner   measured ms   paper ms\n"
        "lr               1.53         90\n"
        f"svm             {svm_ms:.2f}       1710\n"
        "tree            26.57          -\n"
    )
    (results / "BENCH_parallel.json").write_text(
        json.dumps(
            {
                "serial_s": 12.18,
                "parallel_s": 11.91,
                "cold_cache_s": 14.29,
                "warm_cache_s": 0.36,
                "cpu_count": cpu_count,
                "parallel_speedup": parallel_speedup,
            }
        )
    )
    (results / "BENCH_serve.json").write_text(
        json.dumps(
            {
                "sites": 1000,
                "cpu_count": cpu_count,
                "per_site_s": 4.68,
                "fleet_s": 0.60,
                "fleet_speedup": fleet_speedup,
            }
        )
    )
    (results / "BENCH_shards.json").write_text(
        json.dumps(
            {
                "sites": 1000,
                "workers": 4,
                "cpu_count": cpu_count,
                "fleet_s": 0.29,
                "sharded_s": 0.12,
                "shard_speedup": shard_speedup,
            }
        )
    )
    (results / "fig4_coordinated_accuracy.txt").write_text(
        "Fig.4 (learner=tan, h=3, delta=5.0, optimistic)\n"
        "Workload        OS BA   HPC BA  OS bneck  HPC bneck\n"
        "ordering        0.852    0.943     1.000      1.000\n"
        f"browsing        0.727    {browsing_ba:.3f}     0.769      0.923\n"
        " ordering (os) | █████████· 0.852\n"  # bar rows never parse
    )


class TestCompareBaselines:
    def test_parsers_read_all_four_artifacts(self, comparator, tmp_path):
        _write_artifacts(tmp_path)
        fresh = comparator.collect(tmp_path)
        assert fresh["decision_time_ms"]["svm"] == pytest.approx(19.1)
        assert "parallel_s" not in fresh["parallel_engine_s"]
        assert fresh["serve_s"]["fleet_s"] == pytest.approx(0.60)
        assert "fleet_speedup" not in fresh["serve_s"]  # floor, not baseline
        assert fresh["fig4_accuracy"]["browsing"]["hpc_ba"] == pytest.approx(
            0.832
        )
        assert len(fresh["fig4_accuracy"]) == 2  # bar-chart rows ignored

    def test_speedup_floors_respect_core_count(self, comparator, tmp_path):
        """A 1-core host must SKIP the parallel floor (not pass it
        vacuously) while still enforcing the interpreter-bound fleet
        floor; a big host enforces both."""
        _write_artifacts(tmp_path, cpu_count=1, parallel_speedup=1.02)
        failures, rows = [], []
        comparator.check_speedup_floors(tmp_path, failures, rows)
        assert failures == []
        assert any("SKIPPED" in row for row in rows)

        _write_artifacts(tmp_path, cpu_count=8, parallel_speedup=1.02)
        failures, rows = [], []
        comparator.check_speedup_floors(tmp_path, failures, rows)
        assert any("parallel_speedup" in f for f in failures)

        _write_artifacts(tmp_path, fleet_speedup=3.0)
        failures, rows = [], []
        comparator.check_speedup_floors(tmp_path, failures, rows)
        assert any("fleet_speedup" in f for f in failures)

    def test_update_then_compare_is_clean(self, comparator, tmp_path):
        _write_artifacts(tmp_path)
        baselines = tmp_path / "baselines.json"
        argv = ["--results-dir", str(tmp_path), "--baselines", str(baselines)]
        assert comparator.main(argv + ["--update"]) == 0
        assert comparator.main(argv) == 0

    def test_timing_regression_fails_one_sided(self, comparator, tmp_path):
        _write_artifacts(tmp_path)
        baselines = tmp_path / "baselines.json"
        argv = ["--results-dir", str(tmp_path), "--baselines", str(baselines)]
        comparator.main(argv + ["--update"])

        _write_artifacts(tmp_path, svm_ms=19.1 * 2)  # slower: regression
        assert comparator.main(argv + ["--time-tolerance", "0.2"]) == 1
        _write_artifacts(tmp_path, svm_ms=19.1 / 10)  # faster: fine
        assert comparator.main(argv + ["--time-tolerance", "0.2"]) == 0

    def test_accuracy_must_match_exactly_by_default(
        self, comparator, tmp_path
    ):
        _write_artifacts(tmp_path)
        baselines = tmp_path / "baselines.json"
        argv = ["--results-dir", str(tmp_path), "--baselines", str(baselines)]
        comparator.main(argv + ["--update"])

        _write_artifacts(tmp_path, browsing_ba=0.830)
        assert comparator.main(argv) == 1
        assert comparator.main(argv + ["--accuracy-tolerance", "0.01"]) == 0

    def test_missing_inputs_exit_two(self, comparator, tmp_path):
        assert (
            comparator.main(["--results-dir", str(tmp_path / "absent")]) == 2
        )
