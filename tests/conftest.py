"""Shared fixtures.

Heavy artifacts (testbed runs, trained synopses and meters) are built
once per session through a small-scale
:class:`~repro.experiments.pipeline.ExperimentPipeline`; individual
tests assert qualitative shape, not absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.pipeline import ExperimentPipeline, PipelineConfig
from repro.simulator import (
    AppServer,
    DatabaseServer,
    MultiTierWebsite,
    Simulator,
)

#: scale factor for session-wide integration artifacts: big enough for
#: stable labels, small enough to keep the suite fast.
MINI_SCALE = 0.2
MINI_WINDOW = 10


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def website(sim: Simulator) -> MultiTierWebsite:
    return MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))


@pytest.fixture(scope="session")
def mini_pipeline() -> ExperimentPipeline:
    """Small-scale shared pipeline for integration-level tests."""
    return ExperimentPipeline(
        PipelineConfig(scale=MINI_SCALE, window=MINI_WINDOW)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_decision(overloaded: bool, *, held: bool = False, index: int = 0):
    """Fabricate a MonitorDecision for driving AIMD gates directly.

    ``held=True`` produces a quorum-failure decision (no concrete votes,
    everyone abstained → telemetry confidence 0.0); otherwise the
    decision is clean (confidence 1.0).
    """
    from repro.core.coordinator import CoordinatedPrediction
    from repro.core.monitor import MonitorDecision
    from repro.telemetry.dataset import OVERLOAD, UNDERLOAD
    from repro.telemetry.sampler import WindowStats

    state = OVERLOAD if overloaded else UNDERLOAD
    if held:
        prediction = CoordinatedPrediction(
            state=state,
            bottleneck=None,
            gpv=0,
            hc=0.0,
            confident=False,
            synopsis_votes=(),
            degraded=True,
            abstained=(0, 1),
        )
    else:
        prediction = CoordinatedPrediction(
            state=state,
            bottleneck=None,
            gpv=0,
            hc=2.0,
            confident=True,
            synopsis_votes=(state, state),
        )
    stats = WindowStats(
        t_start=index * 10.0,
        t_end=index * 10.0 + 10.0,
        submitted=10,
        completed=10,
        dropped=0,
        response_time_sum=1.0,
        tier_utilization={"app": 0.5, "db": 0.4},
        tier_queue={"app": 1.0, "db": 0.5},
        tier_distress={"app": 0.0, "db": 0.0},
    )
    return MonitorDecision(
        index=index,
        t_start=stats.t_start,
        t_end=stats.t_end,
        prediction=prediction,
        truth=state,
        truth_bottleneck=None,
        stats=stats,
        held=held,
    )


def attach_busy_sites(service) -> Simulator:
    """Busy ordering traffic on every site of ``service``, attached live.

    Each site gets its own website and a 40-client browser population
    seeded from its spec; returns the simulator, not yet run.
    """
    from repro.workload.rbe import RemoteBrowserEmulator
    from repro.workload.tpcw import ORDERING_MIX

    sim = Simulator()
    websites = {}
    for site in service.sites:
        website = MultiTierWebsite(sim, AppServer(sim), DatabaseServer(sim))
        websites[site.name] = website
        rbe = RemoteBrowserEmulator(
            sim,
            service.front_end(sim, site.name, website),
            ORDERING_MIX,
            think_time_mean=0.5,
            seed=site.spec.seed,
        )
        rbe.set_population(40)
    service.attach(sim, websites)
    return sim


def sample_both_levels(patch: pytest.MonkeyPatch) -> None:
    """Make every live site's sampler synthesize hpc and os: the
    reference the level-gated samplers must match."""
    from repro.control.service import SiteRuntime
    from repro.telemetry.sampler import CONCRETE_LEVELS

    patch.setattr(
        SiteRuntime, "levels", property(lambda site: frozenset(CONCRETE_LEVELS))
    )


def pin_path(patch: pytest.MonkeyPatch, *, stacked: bool, sites: int) -> None:
    """Pin the size rule so services of ``sites`` sites built from now
    on fold and decide on the stack (``stacked``) or per site."""
    from repro.control import fleet

    patch.setattr(fleet, "STACK_MIN_SITES", 1 if stacked else sites + 1)
