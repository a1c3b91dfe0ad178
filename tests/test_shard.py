"""Tests for the multi-process sharded :class:`ShardedCapacityService`.

The contract under test is the PR's acceptance bar: for *any* worker
count the sharded service is observationally identical to the
single-process :class:`~repro.control.service.CapacityService` —

* merged decision stream (order, predictions, confidences) bit-identical
  at 1, 2 and 4 workers;
* gate states and monitor tables (after sync) bit-identical;
* per-site seeds independent of the shard layout;
* checkpoints written at N workers resume at M (including M = 0, the
  single-process service) and continue bit-identically, injector and
  watchdog run state included;
* worker metrics registries merge into the parent (counters summed,
  gauges last-write) with a zero-cost disabled path.

Plus unit coverage for the :class:`~repro.parallel.pool.WorkerPool`
substrate itself (ordering, error transport, warm-up failure).
"""

import json
import os

import pytest

from repro.control import CapacityService, SiteSpec
from repro.control.shard import ShardedCapacityService, partition_sites
from repro.faults import FaultPlan, FaultSpec, decision_signature
from repro.obs import OBS, MetricsRegistry, merge_snapshot, snapshot_lines
from repro.parallel.pool import WorkerError, WorkerPool
from repro.telemetry.sampler import HPC_LEVEL, OS_LEVEL
from tests.conftest import attach_busy_sites, pin_path, sample_both_levels

FAULTY_PLAN = FaultPlan(
    seed=3,
    faults=(
        FaultSpec(kind="dropout", probability=0.2),
        FaultSpec(kind="stall", tier="db", start=40, end=41),
    ),
)

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def labeler(mini_pipeline):
    return mini_pipeline.labeler


@pytest.fixture(scope="module")
def records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


def make_specs(n=6, *, faulty=()):
    return [
        SiteSpec(
            name=f"site{i}",
            seed=100 + i,
            plan=FAULTY_PLAN if i in faulty else None,
        )
        for i in range(n)
    ]


def canon(state):
    """JSON canonical form: fault-injected telemetry carries NaN cells,
    which compare unequal to themselves under ``==`` even when the
    states are bit-identical."""
    return json.dumps(state, sort_keys=True)


def _worker_stacks():
    """Does this worker's shard fold and decide on the stack?"""
    from repro.control import shard

    return shard._SHARD.fleet.stacks


def site_signatures(decisions):
    per_site = {}
    for name, decision in decisions:
        per_site.setdefault(name, []).append(decision)
    return {
        name: decision_signature(site_decisions)
        for name, site_decisions in per_site.items()
    }


@pytest.fixture(scope="module")
def reference(meter, labeler, records):
    """Uninterrupted single-process run: stream, gates, tables."""
    specs = make_specs(faulty=(2,))
    service = CapacityService(meter, specs, labeler=labeler)
    decisions = service.replay(records)
    return {
        "specs": specs,
        "decisions": decisions,
        "signatures": site_signatures(decisions),
        "gates": {s.name: s.gate.state_dict() for s in service.sites},
        "monitors": {
            s.name: {
                "state": s.monitor.state_dict(),
                "tables": s.monitor.meter.coordinator.table_state(),
            }
            for s in service.sites
        },
    }


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_contiguous_and_balanced(self):
        specs = make_specs(7)
        shards = partition_sites(specs, 3)
        assert [len(s) for s in shards] == [3, 2, 2]
        assert [spec for shard in shards for spec in shard] == specs

    def test_workers_clamped_to_sites(self):
        shards = partition_sites(make_specs(2), 5)
        assert len(shards) == 2
        assert all(shard for shard in shards)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            partition_sites(make_specs(2), 0)
        with pytest.raises(ValueError):
            partition_sites([], 2)


# ----------------------------------------------------------------------
# the tentpole: merged stream bit-identity at any worker count
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_merged_stream_gates_tables(
        self, meter, labeler, records, reference, workers
    ):
        with ShardedCapacityService(
            meter,
            reference["specs"],
            workers=workers,
            labeler=labeler,
            chunk_ticks=13,
        ) as service:
            decisions = service.replay(records)
            # merged emission order is the single-process order exactly
            assert [n for n, _ in decisions] == [
                n for n, _ in reference["decisions"]
            ]
            assert site_signatures(decisions) == reference["signatures"]
            assert service.gate_states() == reference["gates"]
            assert canon(service.monitor_states()) == canon(
                reference["monitors"]
            )

    def test_stacked_workers_match_per_site_process(
        self, meter, labeler, records, reference, monkeypatch
    ):
        """Each worker applies the size rule to its own shard: with the
        constant patched before the pool forks, 3-site shards stack and
        still merge into the per-site single-process stream."""
        assert not CapacityService(meter, reference["specs"]).fleet.stacks
        pin_path(monkeypatch, stacked=True, sites=3)
        with ShardedCapacityService(
            meter, reference["specs"], workers=2, labeler=labeler
        ) as service:
            decisions = service.replay(records)
            assert [service.pool.call(w, _worker_stacks) for w in (0, 1)] == [
                True,
                True,
            ]
            assert [n for n, _ in decisions] == [
                n for n, _ in reference["decisions"]
            ]
            assert site_signatures(decisions) == reference["signatures"]
            assert service.gate_states() == reference["gates"]
            assert canon(service.monitor_states()) == canon(
                reference["monitors"]
            )

    def test_push_matches_replay_chunking(
        self, meter, labeler, records, reference
    ):
        """Tick-at-a-time pushes equal the chunked pipeline."""
        with ShardedCapacityService(
            meter, reference["specs"], workers=2, labeler=labeler
        ) as service:
            decisions = []
            for record in records:
                decisions.extend(service.push(record))
            service.sync()
            assert site_signatures(decisions) == reference["signatures"]
            assert service.gate_states() == reference["gates"]

    def test_on_decision_sees_merged_order(self, meter, labeler, records):
        specs = make_specs(4)
        seen = []
        with ShardedCapacityService(
            meter,
            specs,
            workers=2,
            labeler=labeler,
            on_decision=lambda name, decision: seen.append(name),
        ) as service:
            returned = service.replay(records[:40])
        assert seen == [name for name, _ in returned]

    def test_empty_replay(self, meter, labeler):
        with ShardedCapacityService(
            meter, make_specs(2), workers=2, labeler=labeler
        ) as service:
            assert service.replay([]) == []

    def test_duplicate_site_names_rejected(self, meter, labeler):
        with pytest.raises(ValueError, match="duplicate"):
            ShardedCapacityService(
                meter,
                [SiteSpec(name="a"), SiteSpec(name="a")],
                workers=2,
                labeler=labeler,
            )


# ----------------------------------------------------------------------
# live shards sample only the levels their sites read
# ----------------------------------------------------------------------
OS_FAULT_PLAN = FaultPlan(
    seed=5,
    faults=(FaultSpec(kind="dropout", level=OS_LEVEL, probability=0.3),),
)

LIVE_SPECS = [
    SiteSpec(name="site0", seed=100),
    SiteSpec(name="site1", seed=101, plan=FAULTY_PLAN),
    SiteSpec(name="site2", seed=102, plan=OS_FAULT_PLAN),
    SiteSpec(name="site3", seed=103),
]
LIVE_SECONDS = 61.0


def _live_factory(service, duration):
    """``attach_factory`` body; fails the shard if a site that reads no
    OS metric gets a sampler that synthesizes them."""
    sim = attach_busy_sites(service)
    for site, sampler in zip(service.sites, service._samplers):
        if bool(sampler._os_models) != (site.spec.plan == OS_FAULT_PLAN):
            raise AssertionError(f"{site.name} samples {sorted(sampler.levels)}")
    return sim, duration


def live_stream(triples):
    return [
        (name, decision_signature([decision]), decision.confidence, gate_p)
        for name, decision, gate_p in triples
    ]


class TestLiveLevelParity:
    def test_sharded_live_equals_both_level_reference(self, meter, labeler):
        """2 live shards whose samplers skip unread OS metrics decide,
        gate and fold exactly like one process whose samplers
        synthesize both levels."""
        reference = []
        with pytest.MonkeyPatch.context() as patch:
            sample_both_levels(patch)
            single = CapacityService(meter, LIVE_SPECS, labeler=labeler)
            single.on_decision = lambda name, decision: reference.append(
                (name, decision, single.site(name).gate.admission_probability)
            )
            attach_busy_sites(single).run(until=LIVE_SECONDS)
        single.stop()
        assert len(reference) == 6 * len(LIVE_SPECS)

        with ShardedCapacityService(
            meter, LIVE_SPECS, workers=2, labeler=labeler
        ) as service:
            duration = service.attach_factory(_live_factory, LIVE_SECONDS)
            merged = []
            for until in (20.0, 40.0, duration):
                merged.extend(service.advance(until))
            assert live_stream(merged) == live_stream(reference)
            assert service.gate_states() == {
                site.name: site.gate.state_dict() for site in single.sites
            }
            states = service.monitor_states()
            assert canon({n: v["state"] for n, v in states.items()}) == canon(
                {site.name: site.monitor.state_dict() for site in single.sites}
            )
            service.detach()


# ----------------------------------------------------------------------
# seed derivation is shard-layout-independent
# ----------------------------------------------------------------------
class TestSeedLayoutIndependence:
    def test_streams_depend_only_on_site_seed(self):
        """Gate/sampler draws are functions of the spec's root seed
        alone — moving a site between shards cannot change them."""
        spec = SiteSpec(name="s", seed=42)
        reference_rng = spec.make_gate().state_dict()["rng"]
        reference_sampler = spec.sampler_seed
        for workers in WORKER_COUNTS:
            shards = partition_sites(make_specs(8), workers)
            flat = [s for shard in shards for s in shard]
            # every layout carries the same specs, so the same streams
            assert [s.sampler_seed for s in flat] == [
                s.sampler_seed for s in make_specs(8)
            ]
            relocated = SiteSpec(name=f"w{workers}", seed=42)
            assert relocated.make_gate().state_dict()["rng"] == (
                reference_rng
            )
            assert relocated.sampler_seed == reference_sampler

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_gate_rng_state_identical_after_replay(
        self, meter, labeler, records, reference, workers
    ):
        """Gate state (incl. RNG) after an identical replay matches the
        single-process run for every worker count — pinned by the gate
        ``state_dict`` comparison."""
        with ShardedCapacityService(
            meter, reference["specs"], workers=workers, labeler=labeler
        ) as service:
            service.replay(records[:30])
            single = CapacityService(
                meter, reference["specs"], labeler=labeler
            )
            single.replay(records[:30])
            assert service.gate_states() == {
                s.name: s.gate.state_dict() for s in single.sites
            }


# ----------------------------------------------------------------------
# resharded resume
# ----------------------------------------------------------------------
class TestReshardedResume:
    @pytest.fixture(scope="class")
    def saved_at_4(self, meter, labeler, records, reference, tmp_path_factory):
        """Mid-campaign checkpoint written by a 4-worker service."""
        target = tmp_path_factory.mktemp("shard-ck") / "ck4"
        with ShardedCapacityService(
            meter, reference["specs"], workers=4, labeler=labeler
        ) as service:
            head = service.replay(records[:40])
            service.save(target)
        return target, head

    @pytest.mark.parametrize("workers", (1, 2))
    def test_resume_at_fewer_workers(
        self, labeler, records, reference, saved_at_4, workers
    ):
        target, head = saved_at_4
        with ShardedCapacityService.resume(
            target,
            reference["specs"],
            workers=workers,
            labeler=labeler,
            chunk_ticks=9,
        ) as service:
            assert service.ticks == 40
            tail = service.replay(records[40:])
            assert site_signatures(head + tail) == reference["signatures"]
            assert service.gate_states() == reference["gates"]
            assert canon(service.monitor_states()) == canon(
                reference["monitors"]
            )

    def test_resume_single_process_from_sharded(
        self, labeler, records, reference, saved_at_4
    ):
        """workers=0: CapacityService reads the sharded layout directly."""
        target, head = saved_at_4
        service = CapacityService.resume(
            target, reference["specs"], labeler=labeler
        )
        assert service.ticks == 40
        tail = service.replay(records[40:])
        assert site_signatures(head + tail) == reference["signatures"]
        assert {
            s.name: s.gate.state_dict() for s in service.sites
        } == reference["gates"]

    def test_resume_sharded_from_v2_fleet_manifest(
        self, meter, labeler, records, reference, tmp_path
    ):
        """A single-process (fleet-layout) checkpoint resumes under
        ``--workers`` and continues bit-identically."""
        single = CapacityService(
            meter, reference["specs"], labeler=labeler
        )
        head = single.replay(records[:40])
        single.save(tmp_path / "ckfleet")
        with ShardedCapacityService.resume(
            tmp_path / "ckfleet",
            reference["specs"],
            workers=3,
            labeler=labeler,
        ) as service:
            tail = service.replay(records[40:])
            assert site_signatures(head + tail) == reference["signatures"]
            assert service.gate_states() == reference["gates"]

    def test_resume_validates_orphans_and_missing_sites(
        self, labeler, reference, saved_at_4
    ):
        target, _ = saved_at_4
        with pytest.raises(ValueError, match="not in the supplied"):
            ShardedCapacityService.resume(
                target, reference["specs"][:3], workers=2, labeler=labeler
            )
        with ShardedCapacityService.resume(
            target,
            reference["specs"][:3],
            workers=2,
            labeler=labeler,
            allow_subset=True,
        ) as service:
            assert len(service.site_names) == 3
        with pytest.raises(ValueError, match="no gate state"):
            ShardedCapacityService.resume(
                target,
                reference["specs"] + [SiteSpec(name="ghost")],
                workers=2,
                labeler=labeler,
            )

    def test_sharded_manifest_layout(self, saved_at_4):
        from repro.faults.checkpoint import read_json_checkpoint

        target, _ = saved_at_4
        manifest = read_json_checkpoint(target / "service.json")
        assert manifest["layout"] == "sharded"
        assert len(manifest["shards"]) == 4
        shard_sites = [
            name for shard in manifest["shards"] for name in shard["sites"]
        ]
        assert shard_sites == [f"site{i}" for i in range(6)]
        for shard in manifest["shards"]:
            assert (target / shard["file"]).exists()
        # injector/watchdog run state rides in the manifest (site2)
        assert "site2" in manifest["injectors"]
        assert "site2" in manifest["watchdogs"]


# ----------------------------------------------------------------------
# observability merge
# ----------------------------------------------------------------------
class TestObservabilityMerge:
    def test_disabled_path_is_zero_cost(self, meter, labeler):
        with ShardedCapacityService(
            meter, make_specs(2), workers=2, labeler=labeler
        ) as service:
            def forbidden(*args, **kwargs):
                raise AssertionError(
                    "merge_observability touched the pool while disabled"
                )

            original = service.pool.broadcast
            service.pool.broadcast = forbidden
            try:
                assert service.merge_observability() == 0
            finally:
                service.pool.broadcast = original

    def test_worker_registries_fold_into_parent(
        self, meter, labeler, records
    ):
        specs = make_specs(4)
        OBS.reset()
        OBS.enable(registry=MetricsRegistry())
        try:
            with ShardedCapacityService(
                meter, specs, workers=2, labeler=labeler
            ) as service:
                service.replay(records[:40])
            # close() — the context exit — is the single merge point
            sharded_windows = OBS.registry.value(
                "repro_monitor_windows_total"
            )
            OBS.reset()
            OBS.enable(registry=MetricsRegistry())
            single = CapacityService(meter, specs, labeler=labeler)
            single.replay(records[:40])
            assert (
                OBS.registry.value("repro_monitor_windows_total")
                == sharded_windows > 0
            )
        finally:
            OBS.reset()

    def test_merge_snapshot_semantics(self):
        source = MetricsRegistry()
        source.counter("events_total", help="n").inc(3)
        source.gauge("level").set(7.0)
        source.histogram("lat", buckets=[1.0, 2.0]).observe(1.5)
        target = MetricsRegistry()
        target.counter("events_total").inc(2)
        target.gauge("level").set(1.0)
        target.histogram("lat", buckets=[1.0, 2.0]).observe(0.5)
        merged = merge_snapshot(target, snapshot_lines(source))
        assert merged == 3
        assert target.value("events_total") == 5  # counters sum
        assert target.value("level") == 7.0  # gauges last-write
        histogram = target.get("lat")
        assert histogram.count == 2
        assert histogram.sum == 2.0
        assert histogram.counts == [1, 1, 0]

    def test_merge_snapshot_rejects_bucket_mismatch(self):
        source = MetricsRegistry()
        source.histogram("lat", buckets=[1.0]).observe(0.5)
        target = MetricsRegistry()
        target.histogram("lat", buckets=[1.0, 2.0]).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshot(target, snapshot_lines(source))


# ----------------------------------------------------------------------
# the pool substrate
# ----------------------------------------------------------------------
def _pool_square(value):
    return value * value


def _pool_identify(worker_index=None):
    return os.getpid()


def _pool_boom():
    raise RuntimeError("task exploded")


def _pool_bad_init(worker_index, flag):
    if flag:
        raise RuntimeError("init exploded")


class TestWorkerPool:
    def test_map_ordered_preserves_task_order(self):
        with WorkerPool(3) as pool:
            results = pool.map_ordered(
                _pool_square, [(i,) for i in range(11)]
            )
        assert results == [i * i for i in range(11)]

    def test_broadcast_hits_every_worker(self):
        with WorkerPool(3) as pool:
            pids = pool.broadcast(_pool_identify)
        assert len(set(pids)) == 3

    def test_task_errors_carry_worker_traceback(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerError, match="task exploded"):
                pool.call(0, _pool_boom)
            # the worker survives a failed task
            assert pool.call(0, _pool_square, 3) == 9

    def test_initializer_failure_surfaces_at_startup(self):
        with pytest.raises(WorkerError, match="init exploded"):
            WorkerPool(2, initializer=_pool_bad_init, initargs=(True,))

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
