"""P3 — multi-process sharded CapacityService throughput.

Replays one recorded interval stream through ``REPRO_BENCH_SITES``
monitored sites (default 1000) three times: once through the
single-process structure-of-arrays
:class:`~repro.control.fleet.FleetState` backend, and twice through
the 4-worker :class:`~repro.control.shard.ShardedCapacityService` —
supervision off (``recover=False``: no replay buffering, the PR 7
baseline path) and supervision on (the default self-healing
configuration).  All three merged decision streams must be
bit-identical; on a host with at least 4 real cores the sharded path
must deliver at least a 2x windows/sec speedup, and the supervised
run must stay within 10% of the unsupervised one
(``supervised_overhead`` <= 1.10, gated by the comparator).

The numbers ALWAYS land in ``benchmarks/results/BENCH_shards.json``
(with the host's ``cpu_count``) — on smaller hosts the speedup
assertion is then SKIPPED rather than vacuously passed, and the
comparator applies the same cores-aware gate from the artifact.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.control import CapacityService, ShardedCapacityService, SiteSpec
from repro.experiments.pipeline import ExperimentPipeline, PipelineConfig
from repro.faults import decision_signature

from conftest import BENCH_SCALE, BENCH_WINDOW, RESULTS_DIR

#: interpreter-bound like the fleet bench — a smoke-scale stream is fine
SCALE = min(BENCH_SCALE, 0.2)
WINDOW = min(BENCH_WINDOW, 10)

SITES = int(os.environ.get("REPRO_BENCH_SITES", "1000"))
#: decision windows replayed per site
WINDOWS_PER_SITE = 6
WORKERS = 4
#: real cores needed before the speedup floor is meaningful
CORES_NEEDED = 4
SPEEDUP_FLOOR = 2.0


def _signatures(decisions):
    per_site = {}
    for name, decision in decisions:
        per_site.setdefault(name, []).append(decision)
    return {
        name: decision_signature(site_decisions)
        for name, site_decisions in per_site.items()
    }


def test_serve_sharded_throughput(record_result):
    pipeline = ExperimentPipeline(
        PipelineConfig(scale=SCALE, window=WINDOW)
    )
    meter = pipeline.meter("hpc")
    records = pipeline.test_run("ordering").records[
        : WINDOW * WINDOWS_PER_SITE
    ]
    assert len(records) == WINDOW * WINDOWS_PER_SITE
    specs = [SiteSpec(name=f"site{i}", seed=i) for i in range(SITES)]

    fleet = CapacityService(meter, specs, labeler=pipeline.labeler)
    start = time.perf_counter()
    fleet_decisions = fleet.replay(records)
    fleet_s = time.perf_counter() - start

    def timed_sharded(recover):
        with ShardedCapacityService(
            meter,
            specs,
            workers=WORKERS,
            labeler=pipeline.labeler,
            recover=recover,
        ) as sharded:
            start = time.perf_counter()
            decisions = sharded.replay(records)
            return decisions, time.perf_counter() - start

    # one untimed pass absorbs first-fork costs (page faults, pickle
    # memo warm-up) that would otherwise bias whichever timed sharded
    # configuration happens to run first
    timed_sharded(recover=False)
    # PR 7 baseline path: recover=False — no buffering, no supervision
    unsupervised_decisions, unsupervised_s = timed_sharded(recover=False)
    # the default self-healing configuration
    sharded_decisions, sharded_s = timed_sharded(recover=True)

    windows = SITES * WINDOWS_PER_SITE
    assert len(fleet_decisions) == len(sharded_decisions) == windows
    assert len(unsupervised_decisions) == windows
    # the tentpole's correctness bar: bit-identical merged stream,
    # with and without the self-healing supervisor riding the loop
    assert [n for n, _ in sharded_decisions] == [
        n for n, _ in fleet_decisions
    ]
    assert _signatures(sharded_decisions) == _signatures(fleet_decisions)
    assert _signatures(unsupervised_decisions) == _signatures(
        fleet_decisions
    )

    cpu_count = os.cpu_count() or 1
    speedup = fleet_s / sharded_s if sharded_s > 0 else float("inf")
    overhead = (
        sharded_s / unsupervised_s if unsupervised_s > 0 else float("inf")
    )
    payload = {
        "name": "serve_shards",
        "scale": SCALE,
        "window": WINDOW,
        "cpu_count": cpu_count,
        "sites": SITES,
        "workers": WORKERS,
        "windows": windows,
        "fleet_s": round(fleet_s, 4),
        "unsupervised_s": round(unsupervised_s, 4),
        "sharded_s": round(sharded_s, 4),
        "fleet_windows_per_s": round(windows / fleet_s, 1),
        "sharded_windows_per_s": round(windows / sharded_s, 1),
        "shard_speedup": round(speedup, 3),
        "supervised_overhead": round(overhead, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_shards.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_result(
        "serve_shards",
        [f"{key}: {value}" for key, value in payload.items()],
    )

    if cpu_count < CORES_NEEDED:
        pytest.skip(
            f"shard speedup floor needs {CORES_NEEDED} cores, host has "
            f"{cpu_count} (artifact written; recorded "
            f"{speedup:.2f}x)"
        )
    # the tentpole's acceptance bar: >= 2x windows/sec at 4 workers
    assert speedup >= SPEEDUP_FLOOR, (
        f"sharded path only {speedup:.2f}x faster than single-process "
        f"FleetState ({windows / sharded_s:.0f} vs "
        f"{windows / fleet_s:.0f} windows/s at {SITES} sites, "
        f"{WORKERS} workers)"
    )
