"""Unit tests for the AIMD gate and the single-site admission loop.

The controller senses through the canonical
:class:`repro.core.monitor.OnlineCapacityMonitor`; these tests pin the
gate policy (AIMD moves, confidence-floor holds), the front-end
behaviour, and the regressions the unification fixed: heterogeneous
metric keys inside one window, blind AIMD moves on degraded decisions,
and observability toggling changing decisions.
"""

import dataclasses

import numpy as np
import pytest

from repro.control.admission import AdmissionController, AimdGate
from repro.core.capacity import CapacityMeter
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    decision_signature,
    fresh_monitor,
)
from repro.obs import OBS
from repro.simulator import (
    AppServer,
    DatabaseServer,
    MultiTierWebsite,
    Simulator,
)
from repro.telemetry.sampler import HPC_LEVEL, TelemetrySampler
from repro.workload.openloop import OpenLoopSource
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import INTERACTIONS, ORDERING_MIX
from tests.conftest import MINI_WINDOW, make_decision


@pytest.fixture
def trained_meter(mini_pipeline):
    # memoized inside the session pipeline, so this is cheap after the
    # first request
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def replay_records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


class TestAimdGate:
    def test_parameter_validation(self):
        for kwargs in (
            {"decrease_factor": 1.5},
            {"decrease_factor": 0.0},
            {"increase_step": 0.0},
            {"min_admission": 0.0},
            {"confidence_floor": 1.5},
        ):
            with pytest.raises(ValueError):
                AimdGate(**kwargs)

    def test_throttles_on_overload_decisions(self):
        gate = AimdGate()
        for _ in range(5):
            gate.update(make_decision(True))
        assert gate.admission_probability < 0.2
        assert gate.stats.overload_signals == 5

    def test_recovers_additively_when_healthy(self):
        gate = AimdGate()
        gate.admission_probability = 0.2
        for _ in range(20):
            gate.update(make_decision(False))
        assert gate.admission_probability == 1.0

    def test_never_drops_below_min_admission(self):
        gate = AimdGate(min_admission=0.1)
        for _ in range(50):
            gate.update(make_decision(True))
        assert gate.admission_probability == 0.1

    def test_low_confidence_holds_both_directions(self):
        """A held (confidence 0.0) decision moves the probability
        nowhere — neither blind shedding on a stale overload vote nor
        blind recovery during a telemetry blackout."""
        gate = AimdGate()
        gate.admission_probability = 0.5
        gate.update(make_decision(True, held=True))
        assert gate.admission_probability == 0.5
        gate.update(make_decision(False, held=True))
        assert gate.admission_probability == 0.5
        assert gate.stats.low_confidence_holds == 2
        assert gate.stats.overload_signals == 0

    def test_confidence_floor_zero_disables_the_hold(self):
        gate = AimdGate(confidence_floor=0.0)
        gate.update(make_decision(True, held=True))
        assert gate.admission_probability == pytest.approx(0.65)
        assert gate.stats.low_confidence_holds == 0

    def test_state_roundtrip_preserves_rng_stream(self):
        gate = AimdGate(seed=11)
        for _ in range(3):
            gate.update(make_decision(True))
        for _ in range(10):
            gate.admit()
        state = gate.state_dict()

        twin = AimdGate(seed=0)  # deliberately different seed
        twin.load_state(state)
        assert twin.admission_probability == gate.admission_probability
        assert twin.stats == gate.stats
        draws = [gate.admit() for _ in range(50)]
        assert [twin.admit() for _ in range(50)] == draws


class TestAdmissionController:
    def test_untrained_meter_rejected(self, sim, website):
        with pytest.raises(ValueError):
            AdmissionController(sim, website, CapacityMeter())

    def test_parameter_validation(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        for kwargs in (
            {"decrease_factor": 1.5},
            {"increase_step": 0.0},
            {"min_admission": 0.0},
            {"confidence_floor": -0.1},
        ):
            with pytest.raises(ValueError):
                AdmissionController(sim, site, trained_meter, **kwargs)

    def test_throttles_on_overload_signal(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        controller = AdmissionController(sim, site, trained_meter)
        for _ in range(5):
            controller._on_decision(make_decision(True))
        assert controller.admission_probability < 0.2
        assert controller.stats.overload_signals == 5

    def test_recovers_when_healthy(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        controller = AdmissionController(sim, site, trained_meter)
        controller.admission_probability = 0.2
        for _ in range(20):
            controller._on_decision(make_decision(False))
        assert controller.admission_probability == 1.0

    def test_one_decision_per_window(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        rbe = RemoteBrowserEmulator(
            sim, site, ORDERING_MIX, think_time_mean=1.0, seed=4
        )
        rbe.set_population(10)
        controller = AdmissionController(sim, site, trained_meter)
        sim.run(until=MINI_WINDOW * 4 + 1)
        assert controller.monitor.counters.windows == 4

    def test_stop_halts_monitoring(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        controller = AdmissionController(sim, site, trained_meter)
        sim.run(until=MINI_WINDOW + 1)
        controller.stop()
        sim.run(until=MINI_WINDOW * 5)
        assert controller.monitor.counters.windows == 1

    def test_healthy_site_stays_open(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        rbe = RemoteBrowserEmulator(
            sim, site, ORDERING_MIX, think_time_mean=1.0, seed=4
        )
        rbe.set_population(8)  # far below saturation
        controller = AdmissionController(sim, site, trained_meter)
        sim.run(until=MINI_WINDOW * 5 + 1)
        assert controller.stats.overload_signals <= 1
        assert controller.admission_probability >= 0.6

    def test_rejections_complete_immediately_as_drops(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        controller = AdmissionController(sim, site, trained_meter, seed=3)
        controller.admission_probability = 0.0  # reject everything
        outcomes = []
        controller.submit(INTERACTIONS["home"], outcomes.append)
        assert outcomes and outcomes[0].dropped
        assert controller.stats.rejected == 1

    def test_full_admission_forwards_to_site(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        controller = AdmissionController(sim, site, trained_meter, seed=3)
        outcomes = []
        controller.submit(INTERACTIONS["home"], outcomes.append)
        sim.run(until=5.0)
        assert outcomes and not outcomes[0].dropped
        assert controller.stats.admitted == 1

    def test_rbe_can_drive_controller_directly(self, trained_meter):
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        controller = AdmissionController(sim, site, trained_meter, seed=3)
        rbe = RemoteBrowserEmulator(
            sim, controller, ORDERING_MIX, think_time_mean=1.0, seed=5
        )
        rbe.set_population(5)
        sim.run(until=20.0)
        assert controller.stats.offered > 20
        assert controller.stats.admitted > 0


class TestHardenedSensing:
    def test_window_with_missing_counter_decides_without_error(
        self, trained_meter, replay_records
    ):
        """Regression: the deleted duplicate monitor averaged windows
        with a ``dicts[0]``-keyed comprehension and raised KeyError the
        moment one record in a window lacked one counter.  The unified
        path imputes instead and still emits a decision."""
        monitor = fresh_monitor(trained_meter, trained_meter.labeler)
        gate = AimdGate()
        monitor.on_decision = gate.update

        records = list(replay_records[:MINI_WINDOW])
        victim = records[3]
        hpc = {tier: dict(metrics) for tier, metrics in victim.hpc.items()}
        removed = sorted(hpc["app"])[0]
        del hpc["app"][removed]
        records[3] = dataclasses.replace(victim, hpc=hpc)

        decision = None
        for record in records:
            result = monitor.push(record)
            if result is not None:
                decision = result
        assert decision is not None
        assert decision.degraded
        assert monitor.counters.windows == 1

    def test_fault_plan_holds_admission_during_blackout(
        self, trained_meter, replay_records
    ):
        """Satellite regression: drive a telemetry blackout (tier stall,
        no watchdog re-arm) through monitor + gate.  Every held decision
        must leave the admission probability exactly where it was."""
        monitor = fresh_monitor(trained_meter, trained_meter.labeler)
        gate = AimdGate(seed=1)
        transitions = []

        def on_decision(decision):
            before = gate.admission_probability
            gate.update(decision)
            transitions.append(
                (decision.confidence, before, gate.admission_probability)
            )

        monitor.on_decision = on_decision
        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec(kind="stall", tier="db", start=25, end=26),),
        )
        injector = FaultInjector(plan)
        injector.downstream = monitor.push
        for record in replay_records:
            injector.push(record)

        assert monitor.counters.held_decisions > 0
        held = [t for t in transitions if t[0] < gate.confidence_floor]
        assert len(held) == gate.stats.low_confidence_holds > 0
        for _, before, after in held:
            assert after == before

    def test_obs_toggle_preserves_admission_decisions(
        self, trained_meter, replay_records
    ):
        """Observability must be zero-cost semantically: the decision
        stream, the probability trajectory and the Bernoulli admission
        draws are bit-identical with metrics on and off."""

        def run(enabled):
            if enabled:
                OBS.enable()
            try:
                monitor = fresh_monitor(trained_meter, trained_meter.labeler)
                gate = AimdGate(seed=7)
                monitor.on_decision = gate.update
                trajectory = []
                for record in replay_records:
                    decision = monitor.push(record)
                    if decision is not None:
                        trajectory.append(
                            (gate.admission_probability, gate.admit())
                        )
                return (
                    decision_signature(monitor.decisions),
                    trajectory,
                    gate.stats,
                )
            finally:
                OBS.reset()

        assert run(True) == run(False)


class TestLegacyParity:
    def test_unified_path_matches_legacy_averaging_trajectory(
        self, trained_meter
    ):
        """The acceptance pin for the unification: on a clean stream the
        canonical monitor + AimdGate reproduce, move for move, the AIMD
        trajectory of the deleted per-controller window-averaging loop
        (``sum/len`` means + ``meter.predict_window``)."""
        sim = Simulator()
        site = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        rbe = RemoteBrowserEmulator(
            sim, site, ORDERING_MIX, think_time_mean=1.0, seed=4
        )
        rbe.set_population(8)
        sampler = TelemetrySampler(sim, site, workload="parity", seed=4)
        sim.run(until=MINI_WINDOW * 3 + 1)
        crowd = OpenLoopSource(sim, site, ORDERING_MIX, rate=120.0, seed=5)
        sim.run(until=MINI_WINDOW * 7 + 1)
        crowd.stop()
        sim.run(until=MINI_WINDOW * 12 + 1)
        records = sampler.run.records

        # the legacy controller's sensing loop, replicated verbatim
        clone = CapacityMeter.from_payload(
            trained_meter.to_payload(), labeler=trained_meter.labeler
        )
        clone.coordinator.reset_history()
        probability = 1.0
        legacy_states, legacy_probs = [], []
        window = clone.window
        for start in range(0, len(records) - window + 1, window):
            chunk = records[start : start + window]
            metrics = {}
            for tier in clone.tiers:
                dicts = [r.metrics(clone.level, tier) for r in chunk]
                metrics[tier] = {
                    name: sum(d[name] for d in dicts) / len(dicts)
                    for name in dicts[0]
                }
            prediction = clone.predict_window(metrics)
            if prediction.overloaded:
                probability = max(0.05, probability * 0.65)
            else:
                probability = min(1.0, probability + 0.05)
            legacy_states.append((prediction.state, prediction.gpv))
            legacy_probs.append(probability)

        monitor = fresh_monitor(trained_meter, trained_meter.labeler)
        gate = AimdGate()
        new_states, new_probs = [], []
        for record in records:
            decision = monitor.push(record)
            if decision is not None:
                gate.update(decision)
                new_states.append(
                    (decision.prediction.state, decision.prediction.gpv)
                )
                new_probs.append(gate.admission_probability)

        assert new_states == legacy_states
        assert new_probs == legacy_probs
        # the scenario must actually exercise the multiplicative path
        assert any(state for state, _ in new_states)


class TestAdmitDrawAgainstReference:
    def test_admit_equals_uniform_reference(self):
        """One ``random()`` per request: the same values and generator
        state as the ``uniform()`` draw it replaced."""
        for seed in range(5):
            gate = AimdGate(seed=seed)
            ref = np.random.default_rng(seed)
            levels = np.random.default_rng(100 + seed).uniform(0.0, 1.0, 1000)
            for level in [0.0, 1.0, *levels]:
                gate.admission_probability = float(level)
                assert gate.admit() == (not ref.uniform() > level)
            assert gate.state_dict()["rng"] == ref.bit_generator.state
            assert gate.stats.offered == 1002
