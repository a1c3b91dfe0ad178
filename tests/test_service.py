"""Tests for the multi-site :class:`~repro.control.service.CapacityService`.

The service is the tentpole of the monitor unification: N sites, each
with its own clone of the canonical monitor and its own AIMD gate, one
batched synopsis-inference pass per tick, per-site fault plans, and
whole-service checkpoint/resume.  The key invariants pinned here:

* the batched vote path is bit-identical to per-site inference;
* a site inside the service decides exactly as a solo monitor would;
* a seeded fault campaign runs end to end without exceptions and
  replays deterministically;
* save() + resume() + remainder equals an uninterrupted run, bit for
  bit, gates included.
"""

import json

import pytest

from repro.control import CapacityService, SiteSpec
from repro.faults import (
    FaultPlan,
    FaultSpec,
    decision_signature,
    fresh_monitor,
)
from repro.faults.checkpoint import save_fleet_checkpoint
from repro.obs import OBS, MetricsRegistry
from repro.simulator import (
    AppServer,
    DatabaseServer,
    MultiTierWebsite,
    Simulator,
)
from repro.telemetry.sampler import (
    CONCRETE_LEVELS,
    HPC_LEVEL,
    HYBRID_LEVEL,
    OS_LEVEL,
)
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import INTERACTIONS, ORDERING_MIX
from tests.conftest import MINI_WINDOW, attach_busy_sites, sample_both_levels

#: dropout plus a mid-stream database stall — the canonical degraded
#: scenario the ``repro faults`` campaign uses
FAULTY_PLAN = FaultPlan(
    seed=3,
    faults=(
        FaultSpec(kind="dropout", probability=0.2),
        FaultSpec(kind="stall", tier="db", start=40, end=41),
    ),
)


#: os-level faults: the one reason an hpc-metered site keeps its
#: sysstat vector (the injector draws per OS attribute)
OS_FAULT_PLAN = FaultPlan(
    seed=5,
    faults=(
        FaultSpec(kind="dropout", level=OS_LEVEL, probability=0.3),
        FaultSpec(kind="corrupt", tier="db", level=OS_LEVEL, probability=0.2),
    ),
)

LIVE_SPECS = (
    SiteSpec(name="clean", seed=1),
    SiteSpec(name="faulty", seed=2, plan=FAULTY_PLAN),
    SiteSpec(name="os-faulty", seed=3, plan=OS_FAULT_PLAN),
)


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


def site_signature(site_decisions, name):
    return decision_signature(
        [d for n, d in site_decisions if n == name]
    )


class TestConstruction:
    def test_needs_at_least_one_site(self, meter):
        with pytest.raises(ValueError):
            CapacityService(meter, [])

    def test_duplicate_site_names_rejected(self, meter):
        with pytest.raises(ValueError, match="duplicate"):
            CapacityService(
                meter, [SiteSpec(name="a"), SiteSpec(name="a")]
            )

    def test_unknown_site_lookup_raises(self, meter):
        service = CapacityService(meter, [SiteSpec(name="a")])
        with pytest.raises(KeyError):
            service.site("nope")

    def test_sites_are_isolated_clones(self, meter):
        service = CapacityService(
            meter, [SiteSpec(name="a"), SiteSpec(name="b")]
        )
        a, b = service.sites
        assert a.monitor.meter is not b.monitor.meter
        assert a.monitor.meter is not meter


class TestReplay:
    def test_site_decides_like_a_solo_monitor(self, meter, records):
        """One clean site inside the service == the canonical monitor
        alone on the same stream, decision for decision."""
        solo = fresh_monitor(meter, meter.labeler)
        solo_decisions = [
            d for d in (solo.push(r) for r in records) if d is not None
        ]

        service = CapacityService(meter, [SiteSpec(name="only")])
        served = service.replay(records)

        assert site_signature(served, "only") == decision_signature(
            solo_decisions
        )
        assert service.site("only").monitor.counters.windows == len(
            solo_decisions
        )

    def test_batched_votes_bit_identical_to_per_site(self, meter, records):
        """The vectorized predict_batch fast path must not change one
        bit of any decision, even with a faulted site in the mix."""
        sites = [
            SiteSpec(name="clean"),
            SiteSpec(name="faulty", plan=FAULTY_PLAN),
        ]
        batched = CapacityService(meter, sites, batch_votes=True)
        unbatched = CapacityService(meter, sites, batch_votes=False)
        decisions_batched = batched.replay(records)
        decisions_unbatched = unbatched.replay(records)
        for name in ("clean", "faulty"):
            assert site_signature(
                decisions_batched, name
            ) == site_signature(decisions_unbatched, name)

    def test_fault_campaign_end_to_end(self, meter, records):
        """Satellite: a seeded dropout+stall plan through the whole
        service — no exception, degraded windows counted, clean site
        untouched, and the replay is deterministic."""

        def run():
            service = CapacityService(
                meter,
                [
                    SiteSpec(name="clean"),
                    SiteSpec(name="faulty", plan=FAULTY_PLAN, seed=3),
                ],
            )
            decisions = service.replay(records)
            return service, decisions

        service, decisions = run()
        clean = service.site("clean").monitor.counters
        faulty = service.site("faulty").monitor.counters
        assert clean.windows == faulty.windows > 0
        assert clean.degraded_windows == 0
        assert faulty.degraded_windows > 0
        # every decided window went through a gate
        assert len(decisions) == clean.windows + faulty.windows

        _, replayed = run()
        for name in ("clean", "faulty"):
            assert site_signature(decisions, name) == site_signature(
                replayed, name
            )

    def test_gates_follow_their_own_site(self, meter, records):
        """A throttled faulty site must not drag down a clean site's
        admission probability."""
        stress = [
            SiteSpec(name="clean"),
            # aggressive gate so any overload decision shows up clearly
            SiteSpec(name="faulty", plan=FAULTY_PLAN, decrease_factor=0.1),
        ]
        service = CapacityService(meter, stress)
        service.replay(records)
        clean_gate = service.site("clean").gate
        faulty_gate = service.site("faulty").gate
        assert clean_gate.stats.low_confidence_holds == 0
        # overload windows exist in the ordering test stream, so both
        # gates moved; they moved independently
        assert clean_gate.stats.overload_signals > 0
        assert (
            faulty_gate.admission_probability
            != clean_gate.admission_probability
            or faulty_gate.stats != clean_gate.stats
        )


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, meter, records, tmp_path):
        specs = [
            SiteSpec(name="clean", seed=1),
            SiteSpec(name="faulty", plan=FAULTY_PLAN, seed=2),
        ]
        reference = CapacityService(meter, specs)
        expected = reference.replay(records)

        first = CapacityService(meter, specs)
        half = len(records) // 2
        head = first.replay(records[:half])
        first.save(tmp_path / "ckpt")

        resumed = CapacityService.resume(
            tmp_path / "ckpt", specs, labeler=meter.labeler
        )
        # NB: injectors restart their plans on the resumed stream; the
        # faulty site's plan is tick-stationary (dropout forever, stall
        # already fired) only in the clean head, so compare the clean
        # site bit for bit and the whole service structurally.
        tail = resumed.replay(records[half:])
        combined = head + tail
        assert site_signature(combined, "clean") == site_signature(
            expected, "clean"
        )
        assert resumed.ticks == reference.ticks
        assert (
            resumed.site("clean").gate.state_dict()
            == reference.site("clean").gate.state_dict()
        )

    def test_resume_validates_format_and_sites(self, meter, records, tmp_path):
        specs = [SiteSpec(name="a")]
        service = CapacityService(meter, specs)
        service.replay(records[: MINI_WINDOW * 2])
        target = service.save(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="no gate state"):
            CapacityService.resume(
                target, [SiteSpec(name="other")], labeler=meter.labeler
            )
        (target / "service.json").write_text('{"format": "bogus/9"}')
        with pytest.raises(ValueError, match="not a service checkpoint"):
            CapacityService.resume(target, specs, labeler=meter.labeler)


class TestLiveMode:
    def test_attach_decides_and_gates_live(self, meter):
        sim = Simulator()
        websites = {}
        for name in ("a", "b"):
            websites[name] = MultiTierWebsite(
                sim, AppServer(sim), DatabaseServer(sim)
            )
        service = CapacityService(
            meter, [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
        )
        rbe = RemoteBrowserEmulator(
            sim,
            service.front_end(sim, "a", websites["a"]),
            ORDERING_MIX,
            think_time_mean=1.0,
            seed=5,
        )
        rbe.set_population(5)
        service.attach(sim, websites)
        sim.run(until=MINI_WINDOW * 3 + 1)
        assert service.site("a").monitor.counters.windows == 3
        assert service.site("b").monitor.counters.windows == 3
        assert service.site("a").gate.stats.offered > 0
        service.stop()
        sim.run(until=MINI_WINDOW * 6)
        assert service.site("a").monitor.counters.windows == 3

    def test_attach_requires_a_website_per_site(self, meter):
        sim = Simulator()
        service = CapacityService(meter, [SiteSpec(name="a")])
        with pytest.raises(ValueError, match="no website"):
            service.attach(sim, {})

    def test_front_end_drops_when_gate_closed(self, meter):
        sim = Simulator()
        website = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        service = CapacityService(meter, [SiteSpec(name="a")])
        service.site("a").gate.admission_probability = 0.0
        front = service.front_end(sim, "a", website)
        outcomes = []
        front.submit(INTERACTIONS["home"], outcomes.append)
        assert outcomes and outcomes[0].dropped
        assert service.site("a").gate.stats.rejected == 1


def serve_live(meter, specs=LIVE_SPECS, *, windows=6):
    """Serve ``specs`` live on busy ordering traffic.

    Returns the stopped service, its ``(site, decision)`` stream and
    each site's sampler (retaining its last interval record).
    """
    decisions = []
    service = CapacityService(
        meter,
        list(specs),
        on_decision=lambda name, decision: decisions.append((name, decision)),
    )
    sim = attach_busy_sites(service)
    samplers = {
        site.name: sampler
        for site, sampler in zip(service.sites, service._samplers)
    }
    for sampler in samplers.values():
        sampler.retain = 1
    sim.run(until=MINI_WINDOW * windows + 1)
    service.stop()
    return service, decisions, samplers


def last_records(samplers):
    return {name: s.run.records[-1] for name, s in samplers.items()}


def live_outcome(service, decisions):
    """Per site: decisions, confidences, gate, PI moments, injections."""
    return {
        site.name: (
            site_signature(decisions, site.name),
            [d.confidence for name, d in decisions if name == site.name],
            site.gate.state_dict(),
            site.monitor.state_dict()["pi"],
            None if site.injector is None else site.injector.counters.as_dict(),
        )
        for site in service.sites
    }


def both_levels_outcome(meter, specs=LIVE_SPECS):
    """The same live run with every sampler synthesizing both levels."""
    with pytest.MonkeyPatch.context() as patch:
        sample_both_levels(patch)
        service, decisions, samplers = serve_live(meter, specs)
    assert all(record.os for record in last_records(samplers).values())
    return live_outcome(service, decisions)


class TestLiveLevels:
    """Live samplers synthesize only what their site reads."""

    def test_hpc_meter_sites_skip_the_os_vector(self, meter):
        service, decisions, samplers = serve_live(meter)
        assert {site.name: site.levels for site in service.sites} == {
            "clean": {HPC_LEVEL},
            "faulty": {HPC_LEVEL},
            "os-faulty": {HPC_LEVEL, OS_LEVEL},
        }
        for site in service.sites:
            assert samplers[site.name].levels == site.levels
        assert samplers["clean"]._os_models == {}
        last = last_records(samplers)
        assert last["clean"].os == {}
        assert last["faulty"].os == {}
        assert sorted(last["os-faulty"].os) == ["app", "db"]
        assert len(decisions) == 6 * len(LIVE_SPECS)

    def test_decisions_equal_a_both_level_reference(self, meter):
        service, decisions, _ = serve_live(meter)
        assert live_outcome(service, decisions) == both_levels_outcome(meter)

    @pytest.mark.parametrize("level", [OS_LEVEL, HYBRID_LEVEL])
    def test_os_reading_meters_keep_os_and_pi(self, mini_pipeline, level):
        meter = mini_pipeline.meter(level)
        specs = LIVE_SPECS[:1]
        service, decisions, samplers = serve_live(meter, specs)
        (site,) = service.sites
        assert site.levels == frozenset(CONCRETE_LEVELS)
        assert sorted(last_records(samplers)["clean"].os) == ["app", "db"]
        monitor = site.monitor
        assert monitor.counters.partial_ticks == 0
        assert monitor.counters.pi_skipped_updates == 0
        assert [item["state"]["n"] for item in monitor.state_dict()["pi"]] == [
            monitor.counters.ticks
        ] * 4
        assert decisions and not any(d.degraded for _, d in decisions)
        assert live_outcome(service, decisions) == both_levels_outcome(
            meter, specs
        )

    def test_fault_plan_levels(self):
        assert FaultPlan().levels == frozenset()
        assert FAULTY_PLAN.levels == {HPC_LEVEL}
        assert OS_FAULT_PLAN.levels == {HPC_LEVEL, OS_LEVEL}
        # tier-bound record faults read no metric dict at all
        targeted = FaultPlan(
            faults=(FaultSpec(kind="stall", tier="db", level=OS_LEVEL),)
        )
        assert targeted.levels == frozenset()
        tiered_os = FaultPlan(
            faults=(FaultSpec(kind="dropout", tier="app", level=OS_LEVEL),)
        )
        assert tiered_os.levels == {OS_LEVEL}


#: lost and late-duplicated records: 0 or 2 deliveries on some ticks
LOSSY_PLAN = FaultPlan(
    seed=9,
    faults=(
        FaultSpec(kind="drop_record", probability=0.1),
        FaultSpec(kind="duplicate_record", probability=0.1),
    ),
)

PARITY_SPECS = LIVE_SPECS + (SiteSpec(name="lossy", seed=4, plan=LOSSY_PLAN),)


def attach_with_front_ends(service):
    """``attach_busy_sites`` that also returns websites and front ends,
    so a resumed service can take over the same simulation."""
    sim = Simulator()
    websites, fronts = {}, {}
    for site in service.sites:
        website = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        websites[site.name] = website
        fronts[site.name] = service.front_end(sim, site.name, website)
        rbe = RemoteBrowserEmulator(
            sim,
            fronts[site.name],
            ORDERING_MIX,
            think_time_mean=0.5,
            seed=site.spec.seed,
        )
        rbe.set_population(40)
    service.attach(sim, websites)
    return sim, websites, fronts


def live_campaign(meter, directory, *, use_fleet, adapt):
    """Serve ``PARITY_SPECS`` live through observability on and off, a
    mid-window checkpoint, a resume and a meter swap.

    Returns the resumed service and every ``(site, decision)``.
    """
    decisions = []
    options = dict(
        adapt=adapt,
        use_fleet=use_fleet,
        batch_votes=use_fleet,
        on_decision=lambda name, d: decisions.append((name, d)),
    )
    service = CapacityService(meter, list(PARITY_SPECS), **options)
    sim, websites, fronts = attach_with_front_ends(service)
    sim.run(until=5.5)
    OBS.enable(registry=MetricsRegistry())
    try:
        sim.run(until=13.5)
    finally:
        OBS.reset()
    sim.run(until=2 * MINI_WINDOW + 4.5)  # mid-window
    service.save(directory)
    if not use_fleet:
        # the fleet layout's file too, so the two runs' files compare
        save_fleet_checkpoint(
            [(site.name, site.monitor) for site in service.sites],
            directory / "fleet.monitor.json",
        )
    service.stop()
    del options["adapt"]
    resumed = CapacityService.resume(
        directory, list(PARITY_SPECS), labeler=meter.labeler, **options
    )
    for name, front in fronts.items():
        front.gate = resumed.site(name).gate
    resumed.attach(sim, websites)
    sim.run(until=3 * MINI_WINDOW + 3.5)
    resumed.swap_meter(meter)
    sim.run(until=7 * MINI_WINDOW + 0.5)
    resumed.stop()
    return resumed, decisions


class TestLiveFleetParity:
    """Live mode folds every site's tick on the fleet's stack; decisions,
    run-local state, tables, gates and a mid-window checkpoint equal the
    per-site loop's, through observability on and off, a resume and a
    meter swap, on clean, faulty and lossy sites."""

    @pytest.mark.parametrize("adapt", [False, True])
    def test_attach_matches_per_site_loop(self, meter, tmp_path, adapt):
        fleet, fleet_decisions = live_campaign(
            meter, tmp_path / "fleet", use_fleet=True, adapt=adapt
        )
        scalar, scalar_decisions = live_campaign(
            meter, tmp_path / "scalar", use_fleet=False, adapt=adapt
        )
        assert fleet.fleet is not None and scalar.fleet is None
        assert len(fleet_decisions) == len(scalar_decisions) > 0
        for spec in PARITY_SPECS:
            assert site_signature(
                fleet_decisions, spec.name
            ) == site_signature(scalar_decisions, spec.name)
            a = fleet.site(spec.name)
            b = scalar.site(spec.name)
            assert json.dumps(a.monitor.state_dict()) == json.dumps(
                b.monitor.state_dict()
            )
            assert (
                a.monitor.meter.coordinator.table_state()
                == b.monitor.meter.coordinator.table_state()
            )
            assert a.gate.state_dict() == b.gate.state_dict()
        # the checkpoint went down mid-window, into the same bytes
        saved = (tmp_path / "fleet" / "fleet.monitor.json").read_bytes()
        assert saved == (tmp_path / "scalar" / "fleet.monitor.json").read_bytes()
        states = json.loads(saved)["states"]
        assert states[0]["aggregator"]["fill"] == 4
        manifests = [
            json.loads((tmp_path / side / "service.json").read_text())
            for side in ("fleet", "scalar")
        ]
        assert [m.pop("layout") for m in manifests] == ["fleet", "per-site"]
        assert manifests[0] == manifests[1]
        # after the swap the clean sites folded back onto the stack
        assert fleet.meter_version == 2
        assert fleet.fleet._stacked[fleet.site("clean").index]
        lossy = fleet.site("lossy").injector.counters.as_dict()
        assert lossy == scalar.site("lossy").injector.counters.as_dict()
        assert lossy["records_dropped"] and lossy["records_duplicated"]


class TestServeCli:
    def test_serve_smoke_is_deterministic(self, capsys):
        from repro.cli import main

        argv = ["serve", "--scale", "0.2", "--sites", "2", "--seed", "7"]
        assert main(argv) == 0
        out_a = capsys.readouterr().out
        assert "site site0:" in out_a
        assert "site site1:" in out_a
        assert "gate: p=" in out_a
        assert main(argv) == 0
        assert capsys.readouterr().out == out_a

    def test_serve_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "svc")
        prom = str(tmp_path / "serve.prom")
        base = [
            "serve",
            "--scale",
            "0.2",
            "--seed",
            "3",
            "--checkpoint",
            ckpt,
            "--checkpoint-every",
            "5",
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert f"# checkpoint saved to {ckpt}" in out
        assert main(base + ["--resume", "--metrics-out", prom]) == 0
        out = capsys.readouterr().out
        assert "# resumed" in out
        assert "no retraining" in out
        text = (tmp_path / "serve.prom").read_text()
        assert "repro_admission_probability" in text
        assert 'site="site0"' in text

    def test_serve_validation(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--sites"):
            main(["serve", "--scale", "0.2", "--sites", "0"])
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["serve", "--scale", "0.2", "--resume"])
