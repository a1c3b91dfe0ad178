"""Tests for the structure-of-arrays fleet backend (PR 6 tentpole).

The hard constraint: with ``use_fleet=True`` (the default) every
decision, counter, coordinator table and gate state must be bit-for-bit
identical to the per-site path (``use_fleet=False, batch_votes=False``)
over clean, degraded and mixed streams — pinned here the same way
``batch_votes`` parity is pinned in ``tests/test_service.py``.

The satellite fixes ride along:

* ``resume()`` raises on checkpointed sites missing from the supplied
  spec list (``allow_subset=True`` is the escape hatch);
* ``SiteSpec.seed`` spawns independent substreams for the gate RNG and
  the sampler noise instead of feeding one integer to both;
* fault injectors and watchdogs checkpoint their run-local state, so a
  mid-campaign save/resume replays the *rest* of the fault plan, not
  the whole plan from tick zero.
"""

import json

import numpy as np
import pytest

from repro.control import CapacityService, FleetState, SiteSpec
from repro.faults import (
    FaultPlan,
    FaultSpec,
    decision_signature,
    fresh_monitor,
)
from repro.faults.checkpoint import load_fleet_checkpoint
from repro.telemetry.persistence import load_run, run_to_dict
from repro.telemetry.sampler import (
    HPC_LEVEL,
    HYBRID_LEVEL,
    OS_LEVEL,
    MeasurementRun,
)

#: dropout plus a mid-stream database stall — the canonical degraded
#: scenario, identical to tests/test_service.py
FAULTY_PLAN = FaultPlan(
    seed=3,
    faults=(
        FaultSpec(kind="dropout", probability=0.2),
        FaultSpec(kind="stall", tier="db", start=40, end=41),
    ),
)


#: one counter lost now and then: the site leaves the fleet's stacked
#: fold on a lossy tick and rejoins at the next window boundary
SPARSE_PLAN = FaultPlan(
    seed=4,
    faults=(
        FaultSpec(
            kind="dropout", tier="db", attributes=("ipc",), probability=0.15
        ),
    ),
)

#: counter spikes in the first five ticks only: records that differ
#: from the clean sites' but keep every attribute
CORRUPT_EARLY = FaultPlan(
    seed=5,
    faults=(FaultSpec(kind="corrupt", probability=0.5, start=0, end=5),),
)


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


def site_signature(site_decisions, name):
    return decision_signature([d for n, d in site_decisions if n == name])


def canon(state):
    """JSON-canonical form: NaN-bearing ring buffers compare textually
    (``nan == nan`` is False, but the bits are what must match)."""
    return json.dumps(state, sort_keys=True)


def specs_for(kind):
    if kind == "clean":
        return [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
    if kind == "degraded":
        return [
            SiteSpec(name="a", seed=1, plan=FAULTY_PLAN),
            SiteSpec(name="b", seed=2, plan=FAULTY_PLAN),
        ]
    if kind == "sparse":
        return [
            SiteSpec(name="clean", seed=1),
            SiteSpec(name="sparse", seed=2, plan=SPARSE_PLAN),
        ]
    return [
        SiteSpec(name="clean", seed=1),
        SiteSpec(name="faulty", seed=2, plan=FAULTY_PLAN),
    ]


class TestFleetParity:
    @pytest.mark.parametrize(
        "stream", ["clean", "degraded", "mixed", "sparse"]
    )
    @pytest.mark.parametrize("adapt", [False, True])
    def test_fleet_bit_identical_to_per_site(
        self, meter, records, stream, adapt
    ):
        """Every decision, counter, table and gate must match the
        per-site loop exactly — clean windows decide vectorized,
        degraded windows drop to the quorum path on the same memory."""
        specs = specs_for(stream)
        fleet = CapacityService(meter, specs, adapt=adapt, use_fleet=True)
        scalar = CapacityService(
            meter, specs, adapt=adapt, use_fleet=False, batch_votes=False
        )
        assert fleet.fleet is not None
        assert scalar.fleet is None
        fleet_decisions = fleet.replay(records)
        scalar_decisions = scalar.replay(records)
        assert len(fleet_decisions) == len(scalar_decisions) > 0
        for spec in specs:
            assert site_signature(
                fleet_decisions, spec.name
            ) == site_signature(scalar_decisions, spec.name)
            a = fleet.site(spec.name)
            b = scalar.site(spec.name)
            # bit-identity of the full run-local state, not just the
            # decision fingerprint
            assert canon(a.monitor.state_dict()) == canon(
                b.monitor.state_dict()
            )
            assert (
                a.monitor.meter.coordinator.table_state()
                == b.monitor.meter.coordinator.table_state()
            )
            assert a.gate.state_dict() == b.gate.state_dict()

    @pytest.mark.parametrize("level", [OS_LEVEL, HYBRID_LEVEL])
    def test_other_meter_levels_bit_identical(
        self, mini_pipeline, records, level
    ):
        """os and hybrid meters stack too; their PI definitions read
        hpc counters outside the stacked rows."""
        meter = mini_pipeline.meter(level)
        specs = specs_for("mixed")
        fleet = CapacityService(meter, specs, use_fleet=True)
        scalar = CapacityService(
            meter, specs, use_fleet=False, batch_votes=False
        )
        fleet_decisions = fleet.replay(records)
        scalar_decisions = scalar.replay(records)
        assert fleet.fleet._pi_extra
        for spec in specs:
            assert site_signature(
                fleet_decisions, spec.name
            ) == site_signature(scalar_decisions, spec.name)
            assert canon(fleet.site(spec.name).monitor.state_dict()) == canon(
                scalar.site(spec.name).monitor.state_dict()
            )

    def test_fleet_state_shares_memory_with_sites(self, meter, records):
        """The per-site coordinators must hold live views of the
        stacked arrays, so either path writes the other's state."""
        service = CapacityService(meter, specs_for("clean"))
        fleet = service.fleet
        for site in service.sites:
            coordinator = site.monitor.meter.coordinator
            assert coordinator._lht.base is fleet.lht
            assert coordinator._gpt.base is fleet.gpt
            assert coordinator._bpt.base is fleet.bpt
            assert coordinator._history.base is fleet.history
        service.replay(records)
        for site in service.sites:
            coordinator = site.monitor.meter.coordinator
            assert np.shares_memory(coordinator._lht, fleet.lht)

    def test_heterogeneous_adapt_rejected(self, meter):
        monitors = [
            fresh_monitor(meter, meter.labeler, adapt=False),
            fresh_monitor(meter, meter.labeler, adapt=True),
        ]
        with pytest.raises(ValueError, match="adapt"):
            FleetState(monitors)

    def test_needs_at_least_one_monitor(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetState([])


class TestEmissionSharing:
    def test_windows_shared_only_where_bit_identical(
        self, meter, records, monkeypatch
    ):
        """Stacked sites that complete on the same record object share
        one window object only when the windows are bit-identical: a
        site whose earlier records were corrupted (a clean fit, so it
        stays stacked) gets its own."""
        specs = [
            SiteSpec(name="a", seed=1),
            SiteSpec(name="b", seed=2),
            SiteSpec(name="c", seed=3, plan=CORRUPT_EARLY),
        ]
        emitted = {}

        def capture(service):
            original = service._flush

            def flush():
                for site in service.sites:
                    for window in site.pending:
                        emitted.setdefault(id(service), []).append(
                            (site.name, window)
                        )
                return original()

            monkeypatch.setattr(service, "_flush", flush)
            return service

        fleet = capture(CapacityService(meter, specs))
        scalar = capture(
            CapacityService(meter, specs, use_fleet=False, batch_votes=False)
        )
        fleet.replay(records[:40])
        scalar.replay(records[:40])
        ours, theirs = emitted[id(fleet)], emitted[id(scalar)]
        assert [(name, canon(w.metrics), w.stats, w.index) for name, w in ours] == [
            (name, canon(w.metrics), w.stats, w.index) for name, w in theirs
        ]
        first = {name: window for name, window in ours if window.index == 0}
        assert first["a"] is first["b"]
        assert first["c"] is not first["a"]
        assert first["c"].metrics != first["a"].metrics


def edited_run(records, tmp_path, edit, at=(12,)):
    """``records`` through a saved run file, record payloads ``at``
    changed by ``edit`` first: what a loaded run can carry."""
    run = MeasurementRun(workload="edited", interval=1.0, records=list(records))
    # a copy: the payload shares the records' metric dicts
    payload = json.loads(json.dumps(run_to_dict(run)))
    for k in at:
        edit(payload["records"][k])
    path = tmp_path / "edited-run.json"
    path.write_text(json.dumps(payload))
    return load_run(path).records


def nan_run(records, tmp_path, metric):
    """One record's app ``metric`` reads ``NaN``: ``json`` parses it."""

    def edit(item):
        item["hpc"]["app"][metric] = float("nan")

    loaded = edited_run(records, tmp_path, edit)
    assert np.isnan(loaded[12].hpc["app"][metric])
    return loaded


class TestNanPiInput:
    """PI moments keep the per-site trackers' NaN behaviour: Python's
    ``max`` keeps the old maximum on a NaN sample, and a NaN cost
    divides to NaN rather than counting as a zero cost."""

    @pytest.mark.parametrize("metric", ["ipc", "l2_miss_rate"])
    def test_nan_yield_or_cost_matches_per_site(
        self, meter, records, tmp_path, metric
    ):
        stream = nan_run(records[:40], tmp_path, metric)
        specs = specs_for("clean")
        fleet = CapacityService(meter, specs, use_fleet=True)
        scalar = CapacityService(
            meter, specs, use_fleet=False, batch_votes=False
        )
        fleet_decisions = fleet.replay(stream)
        scalar_decisions = scalar.replay(stream)
        for spec in specs:
            assert site_signature(
                fleet_decisions, spec.name
            ) == site_signature(scalar_decisions, spec.name)
            a = fleet.site(spec.name).monitor.state_dict()
            b = scalar.site(spec.name).monitor.state_dict()
            assert canon(a) == canon(b)
            # the running maxima stay finite: the NaN sample is skipped
            pi = {
                (item["tier"], item["cost_metric"]): item["state"]
                for item in a["pi"]
            }
            assert np.isfinite(pi[("app", "l2_miss_rate")]["max_abs_x"])


class TestOutsideCounts:
    """Client counts the stacked sums cannot hold as the per-site sums
    do — a float, or ints whose window sum leaves int64 — fold per
    site."""

    @pytest.mark.parametrize(
        "count", [12.0, 2**62], ids=["float", "beyond-int64-sum"]
    )
    def test_counts_match_per_site(self, meter, records, tmp_path, count):
        def edit(item):
            item["client"]["submitted"] = count

        stream = edited_run(records[:40], tmp_path, edit, at=(12, 13))
        assert type(stream[12].website.client.submitted) is type(count)
        specs = specs_for("clean")
        fleet = CapacityService(meter, specs, use_fleet=True)
        scalar = CapacityService(
            meter, specs, use_fleet=False, batch_votes=False
        )
        assert [repr(d) for d in fleet.replay(stream)] == [
            repr(d) for d in scalar.replay(stream)
        ]
        for spec in specs:
            assert canon(fleet.site(spec.name).monitor.state_dict()) == canon(
                scalar.site(spec.name).monitor.state_dict()
            )


class TestSeedSubstreams:
    def test_gate_and_sampler_streams_are_independent(self):
        """The old behaviour fed ``seed`` to both the gate RNG and the
        sampler noise; the substreams must now differ from that and
        from each other."""
        spec = SiteSpec(name="s", seed=7)
        assert spec.sampler_seed != spec.seed
        legacy = np.random.default_rng(spec.seed).random(8)
        gate_draws = spec.make_gate()._rng.random(8)
        assert not np.allclose(legacy, gate_draws)
        # and the sampler's integer seed is not the gate stream's seed
        gate_stream, sampler_seed = spec.seed_streams()
        assert int(gate_stream.generate_state(1)[0]) != sampler_seed

    def test_substreams_are_deterministic(self):
        a = SiteSpec(name="x", seed=11)
        b = SiteSpec(name="y", seed=11)
        assert a.sampler_seed == b.sampler_seed
        assert np.array_equal(
            a.make_gate()._rng.random(4), b.make_gate()._rng.random(4)
        )
        assert SiteSpec(name="z", seed=12).sampler_seed != a.sampler_seed


class TestResumeOrphans:
    def test_orphaned_sites_raise_by_default(self, meter, records, tmp_path):
        specs = [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
        service = CapacityService(meter, specs)
        service.replay(records[:30])
        target = service.save(tmp_path / "ckpt")
        with pytest.raises(ValueError, match=r"\['b'\]"):
            CapacityService.resume(target, specs[:1], labeler=meter.labeler)

    def test_allow_subset_is_the_escape_hatch(
        self, meter, records, tmp_path
    ):
        specs = [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
        service = CapacityService(meter, specs)
        service.replay(records[:30])
        target = service.save(tmp_path / "ckpt")
        resumed = CapacityService.resume(
            target, specs[:1], labeler=meter.labeler, allow_subset=True
        )
        assert [site.name for site in resumed.sites] == ["a"]
        resumed.replay(records[30:60])
        assert resumed.site("a").monitor.counters.windows > 0

    def test_unknown_spec_still_reported_first(self, meter, records, tmp_path):
        """A spec with no checkpoint state keeps its original error
        even though it also implies orphans."""
        service = CapacityService(meter, [SiteSpec(name="a")])
        service.replay(records[:30])
        target = service.save(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="no gate state"):
            CapacityService.resume(
                target, [SiteSpec(name="other")], labeler=meter.labeler
            )


class TestMidCampaignResume:
    def test_faulty_site_resumes_bit_identically(
        self, meter, records, tmp_path
    ):
        """Pre-fix, injectors replayed their plans from tick zero on
        resume (the stall re-fired, the dropout RNG restarted).  With
        injector + watchdog state in the v2 manifest the resumed
        faulted stream continues exactly where the saved one stopped."""
        half = len(records) // 2
        # a stall that fires *after* the checkpoint makes plan-cursor
        # restoration observable, on top of the mid-head stall
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="dropout", probability=0.2),
                FaultSpec(kind="stall", tier="db", start=40, end=41),
                FaultSpec(
                    kind="stall", tier="app", start=half + 7, end=half + 8
                ),
            ),
        )
        specs = [
            SiteSpec(name="clean", seed=1),
            SiteSpec(name="faulty", seed=2, plan=plan),
        ]
        reference = CapacityService(meter, specs)
        expected = reference.replay(records)

        first = CapacityService(meter, specs)
        head = first.replay(records[:half])
        target = first.save(tmp_path / "ckpt")

        resumed = CapacityService.resume(target, specs, labeler=meter.labeler)
        tail = resumed.replay(records[half:])
        combined = head + tail
        for name in ("clean", "faulty"):
            assert site_signature(combined, name) == site_signature(
                expected, name
            )
            assert (
                resumed.site(name).gate.state_dict()
                == reference.site(name).gate.state_dict()
            )
            assert canon(
                resumed.site(name).monitor.state_dict()
            ) == canon(reference.site(name).monitor.state_dict())
        assert (
            resumed.site("faulty").injector.counters.as_dict()
            == reference.site("faulty").injector.counters.as_dict()
        )
        assert (
            resumed.site("faulty").watchdog.state_dict()
            == reference.site("faulty").watchdog.state_dict()
        )


class TestCheckpointLayouts:
    def test_fleet_layout_stores_one_monitor_file(
        self, meter, records, tmp_path
    ):
        specs = specs_for("mixed")
        service = CapacityService(meter, specs, use_fleet=True)
        service.replay(records[:40])
        target = service.save(tmp_path / "fleet-ckpt")
        assert (target / "fleet.monitor.json").exists()
        assert not list(target.glob("*.monitor.json.tmp"))
        assert not (target / "clean.monitor.json").exists()
        manifest = json.loads((target / "service.json").read_text())
        assert manifest["layout"] == "fleet"
        restored = dict(
            load_fleet_checkpoint(
                target / "fleet.monitor.json", labeler=meter.labeler
            )
        )
        assert set(restored) == {"clean", "faulty"}
        for spec in specs:
            assert canon(restored[spec.name].state_dict()) == canon(
                service.site(spec.name).monitor.state_dict()
            )

    def test_layouts_cross_resume(self, meter, records, tmp_path):
        """Either layout resumes into either backend, bit-identically."""
        specs = specs_for("mixed")
        half = len(records) // 2
        reference = CapacityService(meter, specs, use_fleet=True)
        expected = reference.replay(records)

        for save_fleet, resume_fleet in (
            (True, False),
            (False, True),
        ):
            first = CapacityService(meter, specs, use_fleet=save_fleet)
            head = first.replay(records[:half])
            target = first.save(
                tmp_path / f"ckpt-{int(save_fleet)}{int(resume_fleet)}"
            )
            expected_files = (
                ["fleet.monitor.json"]
                if save_fleet
                else ["clean.monitor.json", "faulty.monitor.json"]
            )
            for name in expected_files:
                assert (target / name).exists()
            resumed = CapacityService.resume(
                target, specs, labeler=meter.labeler, use_fleet=resume_fleet
            )
            assert (resumed.fleet is not None) == resume_fleet
            combined = head + resumed.replay(records[half:])
            for spec in specs:
                assert site_signature(
                    combined, spec.name
                ) == site_signature(expected, spec.name)

    def test_v1_manifest_still_resumes(self, meter, records, tmp_path):
        """Pre-fleet checkpoints (format v1: per-site layout, no
        injector/watchdog state) must keep loading."""
        specs = [SiteSpec(name="a", seed=1)]
        service = CapacityService(meter, specs, use_fleet=False)
        service.replay(records[:40])
        target = service.save(tmp_path / "ckpt")
        manifest = json.loads((target / "service.json").read_text())
        manifest["format"] = "repro.service-checkpoint/1"
        for key in ("layout", "injectors", "watchdogs"):
            manifest.pop(key, None)
        (target / "service.json").write_text(json.dumps(manifest))
        resumed = CapacityService.resume(target, specs, labeler=meter.labeler)
        assert resumed.ticks == service.ticks
        assert canon(resumed.site("a").monitor.state_dict()) == canon(
            service.site("a").monitor.state_dict()
        )
        resumed.replay(records[40:60])
        assert resumed.site("a").monitor.counters.windows > 0
