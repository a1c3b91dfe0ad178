"""P2 — fleet-scale CapacityService throughput (sites × windows / s).

Replays one recorded interval stream through ``REPRO_BENCH_SITES``
monitored sites (default 1000, the fleet-scale operating point) through
the structure-of-arrays :class:`~repro.control.fleet.FleetState`
service, and through the per-site reference: every site's own
:class:`~repro.core.monitor.OnlineCapacityMonitor` and AIMD gate, one
record at a time.  Decisions must be bit-identical; the fleet path must
deliver at least a 5x windows/sec speedup in either order.

The service is timed before and after the reference loop, each pass
after the other's objects are released: with 1000 monitors left alive,
the cyclic garbage collector's full passes walk them all, which slowed
the following pass by about 30% on a 2-vCPU VM.  The numbers land in
machine-readable ``benchmarks/results/BENCH_serve.json`` (with the
host's CPU core count, so downstream gates can tell a regression from a
small runner).
"""

from __future__ import annotations

import gc
import json
import os
import time

from repro.control import CapacityService, SiteSpec
from repro.experiments.pipeline import ExperimentPipeline, PipelineConfig
from repro.faults import decision_signature, fresh_monitor

from conftest import BENCH_SCALE, BENCH_WINDOW, RESULTS_DIR

#: the fleet win is interpreter-bound, not simulation-bound, so the
#: recorded stream can come from a smoke-scale pipeline
SCALE = min(BENCH_SCALE, 0.2)
WINDOW = min(BENCH_WINDOW, 10)

SITES = int(os.environ.get("REPRO_BENCH_SITES", "1000"))
#: decision windows replayed per site
WINDOWS_PER_SITE = 6


def _signatures(decisions):
    per_site = {}
    for name, decision in decisions:
        per_site.setdefault(name, []).append(decision)
    return {
        name: decision_signature(site_decisions)
        for name, site_decisions in per_site.items()
    }


def _fleet_pass(meter, labeler, specs, records):
    """(seconds, signatures, windows) of one replay through the service."""
    service = CapacityService(meter, specs, labeler=labeler)
    start = time.perf_counter()
    decisions = service.replay(records)
    seconds = time.perf_counter() - start
    return seconds, _signatures(decisions), len(decisions)


def _solo_pass(meter, labeler, specs, records):
    """The per-site reference: each site's monitor and gate on its own."""
    payload = meter.to_payload()
    sites = [
        (spec.name, fresh_monitor(meter, labeler, payload=payload), spec.make_gate())
        for spec in specs
    ]
    decisions = []
    start = time.perf_counter()
    for name, monitor, gate in sites:
        for record in records:
            decision = monitor.push(record)
            if decision is not None:
                gate.update(decision)
                decisions.append((name, decision))
    seconds = time.perf_counter() - start
    return seconds, _signatures(decisions), len(decisions)


def test_serve_fleet_throughput(record_result):
    pipeline = ExperimentPipeline(
        PipelineConfig(scale=SCALE, window=WINDOW)
    )
    meter = pipeline.meter("hpc")
    records = pipeline.test_run("ordering").records[
        : WINDOW * WINDOWS_PER_SITE
    ]
    assert len(records) == WINDOW * WINDOWS_PER_SITE
    specs = [SiteSpec(name=f"site{i}", seed=i) for i in range(SITES)]

    passes = []
    for run in (_fleet_pass, _solo_pass, _fleet_pass):
        passes.append(run(meter, pipeline.labeler, specs, records))
        gc.collect()
    (fleet_first_s, fleet_first, n_first), (per_site_s, solo, n_solo), (
        fleet_after_s,
        fleet_after,
        n_after,
    ) = passes

    windows = SITES * WINDOWS_PER_SITE
    assert n_first == n_solo == n_after == windows
    assert fleet_first == solo == fleet_after

    fleet_s = max(fleet_first_s, fleet_after_s)
    speedup = per_site_s / fleet_s if fleet_s > 0 else float("inf")
    payload = {
        "name": "serve_fleet",
        "scale": SCALE,
        "window": WINDOW,
        "cpu_count": os.cpu_count() or 1,
        "sites": SITES,
        "windows": windows,
        "per_site_s": round(per_site_s, 4),
        "fleet_first_s": round(fleet_first_s, 4),
        "fleet_after_s": round(fleet_after_s, 4),
        "fleet_s": round(fleet_s, 4),
        "per_site_windows_per_s": round(windows / per_site_s, 1),
        "fleet_windows_per_s": round(windows / fleet_s, 1),
        "fleet_first_speedup": round(per_site_s / fleet_first_s, 3),
        "fleet_after_speedup": round(per_site_s / fleet_after_s, 3),
        "fleet_speedup": round(speedup, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_result(
        "serve_fleet",
        [f"{key}: {value}" for key, value in payload.items()],
    )

    # the fleet backend's acceptance bar: >= 5x windows/sec at fleet
    # scale, whichever pass runs first
    assert speedup >= 5.0, (
        f"fleet path only {speedup:.2f}x faster than the per-site loop "
        f"({windows / fleet_s:.0f} vs {windows / per_site_s:.0f} "
        f"windows/s at {SITES} sites)"
    )
