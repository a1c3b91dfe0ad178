"""Tests for the open-loop source and class-based differentiation."""

import numpy as np
import pytest

from repro.control.differentiation import ClassDifferentiator
from repro.simulator import AppServer, DatabaseServer, MultiTierWebsite, Simulator
from repro.simulator.website import BROWSE, ORDER
from repro.telemetry.sampler import HPC_LEVEL
from repro.workload.openloop import OpenLoopSource
from repro.workload.tpcw import INTERACTIONS, ORDERING_MIX
from tests.conftest import make_decision


class TestOpenLoopSource:
    def test_arrivals_match_rate(self, sim, website):
        source = OpenLoopSource(sim, website, ORDERING_MIX, rate=20.0, seed=3)
        sim.run(until=60.0)
        # Poisson(20/s * 60s): mean 1200, sd ~35
        assert 1050 < source.submitted < 1350

    def test_zero_rate_is_silent(self, sim, website):
        source = OpenLoopSource(sim, website, ORDERING_MIX, rate=0.0)
        sim.run(until=10.0)
        assert source.submitted == 0

    def test_set_rate_starts_and_stops(self, sim, website):
        source = OpenLoopSource(sim, website, ORDERING_MIX, rate=0.0)
        source.set_rate(10.0)
        sim.run(until=10.0)
        mid = source.submitted
        assert mid > 50
        source.stop()
        sim.run(until=20.0)
        assert source.submitted == mid

    def test_negative_rate_rejected(self, sim, website):
        with pytest.raises(ValueError):
            OpenLoopSource(sim, website, ORDERING_MIX, rate=-1.0)
        source = OpenLoopSource(sim, website, ORDERING_MIX, rate=1.0)
        with pytest.raises(ValueError):
            source.set_rate(-5.0)

    def test_requests_reach_the_website(self, sim, website):
        outcomes = []
        OpenLoopSource(
            sim,
            website,
            ORDERING_MIX,
            rate=10.0,
            on_complete=outcomes.append,
        )
        sim.run(until=20.0)
        assert len(outcomes) > 100
        assert not outcomes[0].dropped

    def test_open_loop_does_not_back_off(self):
        """Unlike the RBE, arrivals keep coming during overload."""
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        source = OpenLoopSource(sim, site, ORDERING_MIX, rate=120.0, seed=5)
        sim.run(until=30.0)
        # ~120/s offered far exceeds ~55/s capacity; submissions track
        # the offered rate, not the completion rate
        assert source.submitted > 3000
        assert site.in_flight > 500


class TestClassDifferentiator:
    @pytest.fixture
    def gate(self, mini_pipeline):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        meter = mini_pipeline.meter(HPC_LEVEL)
        return sim, site, ClassDifferentiator(sim, site, meter, seed=9)

    def test_submit_draw_equals_uniform_reference(self, gate):
        """One ``random()`` per request: the same values and generator
        state as the ``uniform()`` draw it replaced."""
        _, _, differentiator = gate
        ref = np.random.default_rng(9)
        differentiator.admission[BROWSE] = 0.3
        differentiator.admission[ORDER] = 0.8
        names = list(INTERACTIONS)
        dropped = []
        expected = []
        for i in range(600):
            request = INTERACTIONS[names[i % len(names)]]
            if ref.uniform() > differentiator.admission[request.category]:
                expected.append(i)
            differentiator.submit(
                request,
                lambda outcome, i=i: outcome.dropped and dropped.append(i),
            )
        assert dropped == expected
        assert differentiator._rng.bit_generator.state == ref.bit_generator.state

    def test_parameter_validation(self, mini_pipeline):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        meter = mini_pipeline.meter(HPC_LEVEL)
        with pytest.raises(ValueError):
            ClassDifferentiator(sim, site, meter, decrease_factor=0.0)
        with pytest.raises(ValueError):
            ClassDifferentiator(sim, site, meter, increase_step=0.0)

    def test_browse_shed_before_order(self, gate):
        _, _, differentiator = gate
        differentiator._on_decision(make_decision(True))
        assert differentiator.admission[BROWSE] < 1.0
        assert differentiator.admission[ORDER] == 1.0

    def test_order_gives_only_after_browse_floors(self, gate):
        _, _, differentiator = gate
        for _ in range(30):
            differentiator._on_decision(make_decision(True))
        assert differentiator.admission[BROWSE] == pytest.approx(
            differentiator.min_browse_admission
        )
        assert differentiator.admission[ORDER] < 1.0
        assert (
            differentiator.admission[ORDER]
            >= differentiator.min_order_admission
        )

    def test_order_recovers_first(self, gate):
        _, _, differentiator = gate
        differentiator.admission[BROWSE] = 0.1
        differentiator.admission[ORDER] = 0.5
        differentiator._on_decision(make_decision(False))
        assert differentiator.admission[ORDER] > 0.5
        assert differentiator.admission[BROWSE] == 0.1

    def test_low_confidence_decision_holds_both_classes(self, gate):
        """A quorum-failure (held) decision freezes both admission
        probabilities: no blind shedding, no blind recovery."""
        _, _, differentiator = gate
        differentiator.admission[BROWSE] = 0.3
        differentiator.admission[ORDER] = 0.7
        differentiator._on_decision(make_decision(True, held=True))
        differentiator._on_decision(make_decision(False, held=True))
        assert differentiator.admission[BROWSE] == 0.3
        assert differentiator.admission[ORDER] == 0.7
        assert differentiator.stats.low_confidence_holds == 2

    def test_per_class_rejection_counters(self, gate):
        sim, _, differentiator = gate
        differentiator.admission[BROWSE] = 0.0
        differentiator.admission[ORDER] = 1.0
        outcomes = []
        differentiator.submit(INTERACTIONS["home"], outcomes.append)
        differentiator.submit(INTERACTIONS["buy_confirm"], outcomes.append)
        sim.run(until=2.0)
        assert differentiator.stats.rejected[BROWSE] == 1
        assert differentiator.stats.admitted[ORDER] == 1
        assert differentiator.stats.rejection_rate(BROWSE) == 1.0
        assert outcomes[0].dropped and not outcomes[1].dropped

    def test_protects_order_class_under_flash_crowd(self, mini_pipeline):
        """End to end: an open-loop crowd hits the gate; order traffic
        suffers far less rejection than browse traffic."""
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        meter = mini_pipeline.meter(HPC_LEVEL)
        gate = ClassDifferentiator(sim, site, meter, seed=11)
        OpenLoopSource(sim, gate, ORDERING_MIX, rate=110.0, seed=12)
        sim.run(until=meter.window * 12.0)
        browse_rejection = gate.stats.rejection_rate(BROWSE)
        order_rejection = gate.stats.rejection_rate(ORDER)
        assert browse_rejection > order_rejection + 0.2
        assert gate.stats.admitted[ORDER] > 0


class TestCallbackDefaulting:
    def test_empty_trace_recorder_is_not_discarded(self, sim, website):
        """Regression: TraceRecorder defines __len__, so a fresh (empty,
        falsy) recorder passed as on_complete must not be replaced by
        the no-op default."""
        from repro.workload.traces import TraceRecorder

        trace = TraceRecorder()
        assert len(trace) == 0  # falsy at construction time
        source = OpenLoopSource(
            sim, website, ORDERING_MIX, rate=20.0, seed=2, on_complete=trace
        )
        sim.run(until=10.0)
        assert source.submitted > 0
        assert len(trace.records) > 0

    def test_replayer_keeps_empty_recorder_too(self, sim, website):
        from repro.simulator import (
            AppServer,
            DatabaseServer,
            MultiTierWebsite,
            Simulator,
        )
        from repro.workload.traces import TraceRecord, TraceRecorder, TraceReplayer

        records = [TraceRecord("home", float(i) * 0.1, 0.0, False) for i in range(5)]
        sim2 = Simulator()
        site2 = MultiTierWebsite(sim2, AppServer(sim2), DatabaseServer(sim2))
        sink = TraceRecorder()
        TraceReplayer(sim2, site2, records, on_complete=sink)
        sim2.run()
        assert len(sink.records) == 5
