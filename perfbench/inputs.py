"""Every input a run needs, built by the code under test from one seed.

The trained meter and the four recorded test runs are preparation, not
workload: they are built once per checkout through the program's own
``ExperimentPipeline`` and content-addressed ``ArtifactCache`` (kept in
``.bench_build/``), reloaded on later runs, and never counted in
``setup_s``.  Everything that varies per run — site seeds, RBE seeds,
replay offsets, HTTP request schedules — derives from ``--seed``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
METER = BUILD / "meter.json"
RECORDED = BUILD / "recorded.pickle"

#: the meter every workload serves: hpc-level, scale 0.2, window 10
LEVEL = "hpc"
SCALE = 0.2
WINDOW = 10
#: Fig. 4's held-out test set, replayed by the recorded fleets
TEST_RUNS = ("ordering", "browsing", "interleaved", "unknown")
#: sharded workers and HTTP connections are capped at the core count
NPROC = os.cpu_count() or 1
WORKERS = min(2, NPROC)
CONNECTIONS = min(2, NPROC)


def require_checkout() -> None:
    """Put the checkout's ``src`` on the path, or stop with an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no src/repro under {ROOT}; run it from the root "
            f"of a repro checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Prepared:
    """The preparation a run needs, and what it cost."""

    meter_path: Path
    labeler: Any
    #: distinct (tier, attribute) pairs the meter's synopses read
    used_metrics: int
    #: tier synopses voting on each window
    synopses: int
    #: per test run: its recorded website samples
    runs: Dict[str, List[Any]]
    #: wall seconds spent preparing (train, or reload from the cache)
    seconds: float


def _pipeline() -> Any:
    from repro.experiments import ExperimentPipeline, PipelineConfig
    from repro.parallel.cache import ArtifactCache

    return ExperimentPipeline(
        PipelineConfig(scale=SCALE, window=WINDOW),
        cache=ArtifactCache(BUILD / "cache"),
    )


def build() -> None:
    """Train (or reload) the meter and the test runs; write both out.

    Runs in a child process, so the memory training takes never shows
    in a workload's peak RSS.
    """
    BUILD.mkdir(exist_ok=True)
    pipeline = _pipeline()
    partial = BUILD / f"meter.{os.getpid()}.partial"
    pipeline.meter(LEVEL).save(partial)
    os.replace(partial, METER)
    runs = {
        name: [r.website for r in pipeline.test_run(name).records]
        for name in TEST_RUNS
    }
    partial = BUILD / f"recorded.{os.getpid()}.partial"
    with open(partial, "wb") as handle:
        pickle.dump(runs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, RECORDED)


def prepare(*, need_runs: bool) -> Prepared:
    """Build the inputs in a child process, then load what this run needs."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve())], cwd=ROOT, check=True
    )
    seconds = time.perf_counter() - started
    labeler = _pipeline().labeler
    prepared = Prepared(
        meter_path=METER,
        labeler=labeler,
        used_metrics=0,
        synopses=0,
        runs={},
        seconds=seconds,
    )
    synopses = load_meter(prepared).coordinator.synopses
    prepared.synopses = len(synopses)
    prepared.used_metrics = len(
        {(s.tier, attribute) for s in synopses for attribute in s.attributes}
    )
    if need_runs:
        # written by build() above, in this checkout
        with open(RECORDED, "rb") as handle:
            prepared.runs = pickle.load(handle)
    return prepared


def load_meter(prepared: Prepared) -> Any:
    """The serving path's first step: load the saved meter."""
    from repro.core.capacity import CapacityMeter

    return CapacityMeter.load(prepared.meter_path, labeler=prepared.labeler)


# ----------------------------------------------------------------------
# recorded websites
# ----------------------------------------------------------------------
class _Tier:
    __slots__ = ("spec",)

    def __init__(self, spec: Any) -> None:
        self.spec = spec


class RecordedWebsite:
    """Replays recorded website samples in a loop from an offset.

    It has exactly the two members ``TelemetrySampler`` reads —
    ``tiers`` (each with its hardware ``spec``) and ``sample()`` — so a
    new dependency of the sampler on the website fails loudly here.
    The sampler re-synthesizes the counters from each sample with the
    site's own seeded noise, so no two sites share a record.
    """

    __slots__ = ("tiers", "_samples", "_next")

    def __init__(
        self, tiers: Dict[str, Any], samples: List[Any], offset: int
    ) -> None:
        self.tiers = tiers
        self._samples = samples
        self._next = offset % len(samples)

    def sample(self) -> Any:
        current = self._samples[self._next]
        self._next = (self._next + 1) % len(self._samples)
        return current


def testbed_tiers() -> Dict[str, _Tier]:
    """Tier hardware specs of the testbed that recorded the runs."""
    from repro.experiments.testbed import TestbedConfig
    from repro.simulator import (
        AppServer,
        DatabaseServer,
        MultiTierWebsite,
        Simulator,
    )

    config = TestbedConfig()
    sim = Simulator()
    website = MultiTierWebsite(
        sim,
        AppServer(sim, workers=config.app_workers),
        DatabaseServer(sim, connections=config.db_connections),
    )
    return {name: _Tier(tier.spec) for name, tier in website.tiers.items()}


#: site name -> (test run name, replay offset)
ReplayPlan = Dict[str, Tuple[str, int]]


def fleet_plan(
    seed: int, sites: int, runs: Dict[str, List[Any]]
) -> Tuple[List[Any], ReplayPlan]:
    """Site specs and replay plan of a recorded fleet, from ``seed``.

    Site ``i`` replays test run ``i mod 4`` from a seeded offset; its
    root seed (gate and sampler substreams) is ``1000 * seed + i``.
    """
    from repro.control.service import SiteSpec

    rng = np.random.default_rng(seed)
    specs = []
    plan: ReplayPlan = {}
    for i in range(sites):
        name = f"site{i:03d}"
        run = TEST_RUNS[i % len(TEST_RUNS)]
        specs.append(SiteSpec(name=name, seed=1000 * seed + i))
        plan[name] = (run, int(rng.integers(len(runs[run]))))
    return specs, plan


def recorded_websites(
    names: List[str],
    plan: ReplayPlan,
    runs: Dict[str, List[Any]],
    tiers: Optional[Dict[str, Any]] = None,
) -> Dict[str, RecordedWebsite]:
    tiers = tiers if tiers is not None else testbed_tiers()
    return {
        name: RecordedWebsite(tiers, runs[plan[name][0]], plan[name][1])
        for name in names
    }


if __name__ == "__main__":
    require_checkout()
    build()
