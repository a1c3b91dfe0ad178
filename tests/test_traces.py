"""Unit tests for trace recording, persistence and replay."""

import pytest

from repro.simulator import AppServer, DatabaseServer, MultiTierWebsite, Simulator
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import ORDERING_MIX
from repro.workload.traces import (
    TraceRecord,
    TraceRecorder,
    TraceReplayer,
    load_trace,
    save_trace,
)


@pytest.fixture
def recorded_trace(sim, website):
    recorder = TraceRecorder()
    rbe = RemoteBrowserEmulator(
        sim,
        website,
        ORDERING_MIX,
        think_time_mean=0.5,
        seed=9,
        on_complete=recorder,
    )
    rbe.set_population(5)
    sim.run(until=20.0)
    return recorder


class TestRecorder:
    def test_records_completions(self, recorded_trace):
        assert len(recorded_trace) > 10
        record = recorded_trace.records[0]
        assert record.finish_time >= record.submit_time
        assert not record.dropped

    def test_throughput_window(self, recorded_trace):
        thr = recorded_trace.throughput(0.0, 20.0)
        assert thr == pytest.approx(len(recorded_trace) / 20.0, rel=0.01)

    def test_empty_window_rejected(self, recorded_trace):
        with pytest.raises(ValueError):
            recorded_trace.throughput(5.0, 5.0)


class TestPersistence:
    def test_save_load_roundtrip(self, recorded_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(recorded_trace.records, path)
        loaded = load_trace(path)
        assert loaded == recorded_trace.records

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        record = TraceRecord("home", 0.0, 0.1, False)
        save_trace([record], path)
        path.write_text(path.read_text() + "\n\n")
        assert load_trace(path) == [record]


class TestNonFiniteTimes:
    """``json`` parses NaN and Infinity; a replay would schedule them."""

    @pytest.mark.parametrize(
        "field, value",
        [("submit_time", "NaN"), ("finish_time", "Infinity"),
         ("submit_time", "-Infinity")],
    )
    def test_non_finite_time_rejected_with_line(self, tmp_path, field, value):
        path = tmp_path / "trace.jsonl"
        save_trace([TraceRecord("home", 0.0, 0.1, False)] * 2, path)
        lines = path.read_text().splitlines()
        lines.insert(1, "")
        lines[2] = lines[2].replace(
            f'"{field}": {0.0 if field == "submit_time" else 0.1}',
            f'"{field}": {value}',
        )
        assert value in lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"trace\.jsonl:3: non-finite"):
            load_trace(path)


class TestReplayer:
    def test_replay_preserves_arrival_spacing(self, recorded_trace):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        outcomes = []
        replayer = TraceReplayer(
            sim, site, recorded_trace.records, on_complete=outcomes.append
        )
        assert replayer.scheduled == len(recorded_trace)
        sim.run()
        assert len(outcomes) == len(recorded_trace)

    def test_time_scale_compresses(self, recorded_trace):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        TraceReplayer(sim, site, recorded_trace.records, time_scale=0.5)
        sim.run()
        span = max(r.submit_time for r in recorded_trace.records) - min(
            r.submit_time for r in recorded_trace.records
        )
        assert sim.now < span  # finished in under the original span

    def test_unknown_interaction_rejected(self):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        bad = [TraceRecord("not-a-page", 0.0, 0.1, False)]
        with pytest.raises(KeyError):
            TraceReplayer(sim, site, bad)

    def test_invalid_time_scale_rejected(self, recorded_trace):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        with pytest.raises(ValueError):
            TraceReplayer(sim, site, recorded_trace.records, time_scale=0.0)
