"""Measurement-based admission control driven by the capacity meter.

The paper motivates online capacity measurement with exactly this use
case (Section I): "knowledge about the server capacity can help a
measurement-based admission controller in the front-end to regulate
the input traffic rate so as to prevent the server from running in an
overloaded state."

The sensing path is the canonical
:class:`~repro.core.monitor.OnlineCapacityMonitor` — the same hardened
implementation behind the ``repro monitor`` CLI: lenient streaming
aggregation, synopsis imputation/abstention, coordinator quorum voting
and hold-last-decision fallback.  There is deliberately no second
monitor here; the controller is a *consumer* of
:class:`~repro.core.monitor.MonitorDecision`.

:class:`AimdGate` closes the loop with the classic AIMD policy: on a
predicted overload the admission probability is cut multiplicatively;
while the site is predicted healthy it recovers additively.  A decision
whose telemetry confidence falls below ``confidence_floor`` — a held
quorum failure re-emitting stale state, or a vote built mostly from
substituted bits — moves the probability *nowhere*: blind recovery
during a telemetry blackout is how a collapsing site gets re-flooded,
and blind shedding on a stale overload vote starves it.  Rejected
requests are turned away immediately — the cheapest possible failure
mode compared to queueing them into a collapsing server.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from ..core.capacity import CapacityMeter
from ..core.monitor import MonitorDecision, OnlineCapacityMonitor
from ..obs import OBS
from ..obs.registry import Counter, Gauge, MetricsRegistry
from ..simulator.engine import Simulator
from ..simulator.website import CompletedRequest, MultiTierWebsite, Request
from ..telemetry.sampler import TelemetrySampler, WindowStats

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AimdGate",
    "GatedFrontEnd",
]

_ObsHandles = Tuple[MetricsRegistry, Gauge, Counter, Counter, Counter, Counter]


@dataclass
class AdmissionStats:
    """Counters of one gate's admission decisions."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    overload_signals: int = 0
    #: decisions whose telemetry confidence was below the floor, so the
    #: admission probability was held steady instead of moved
    low_confidence_holds: int = 0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0


class AimdGate:
    """AIMD admission probability driven by monitor decisions.

    :meth:`update` consumes one
    :class:`~repro.core.monitor.MonitorDecision` per window;
    :meth:`admit` draws one Bernoulli admission decision per request.
    The two are deliberately decoupled from any particular front end so
    the single-site :class:`AdmissionController` and the multi-site
    :class:`~repro.control.service.CapacityService` share one audited
    actuation path.

    ``confidence_floor`` guards both AIMD directions against degraded
    telemetry: a decision with
    :attr:`~repro.core.monitor.MonitorDecision.confidence` below the
    floor holds the probability steady.  Clean-stream decisions carry
    confidence 1.0, so a zero-fault run is bit-identical to a gate
    without the floor.
    """

    def __init__(
        self,
        *,
        decrease_factor: float = 0.65,
        increase_step: float = 0.05,
        min_admission: float = 0.05,
        confidence_floor: float = 0.75,
        seed: Union[int, np.random.SeedSequence] = 0,
        site: str = "default",
    ) -> None:
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if increase_step <= 0:
            raise ValueError("increase_step must be positive")
        if not 0.0 < min_admission <= 1.0:
            raise ValueError("min_admission must be in (0, 1]")
        if not 0.0 <= confidence_floor <= 1.0:
            raise ValueError("confidence_floor must be in [0, 1]")
        self.decrease_factor = decrease_factor
        self.increase_step = increase_step
        self.min_admission = min_admission
        self.confidence_floor = confidence_floor
        self.site = site
        self.admission_probability = 1.0
        self.stats = AdmissionStats()
        self._rng = np.random.default_rng(seed)
        # cached metric handles, valid while OBS.registry is the same
        # object (transient; excluded from checkpoint state)
        self._obs_cache: Optional[_ObsHandles] = None

    # ------------------------------------------------------------------
    def update(self, decision: MonitorDecision) -> None:
        """Fold one per-window decision into the admission probability."""
        held = decision.confidence < self.confidence_floor
        if held:
            self.stats.low_confidence_holds += 1
        elif decision.prediction.overloaded:
            self.stats.overload_signals += 1
            self.admission_probability = max(
                self.min_admission,
                self.admission_probability * self.decrease_factor,
            )
        else:
            self.admission_probability = min(
                1.0, self.admission_probability + self.increase_step
            )
        if OBS.enabled:
            handles = self._handles()
            handles[1].set(self.admission_probability)
            if held:
                handles[5].inc()
            elif decision.prediction.overloaded:
                handles[4].inc()

    @staticmethod
    def update_many(
        gates: Sequence["AimdGate"],
        decisions: Sequence[MonitorDecision],
    ) -> None:
        """Fold one decision into each of N aligned gates.

        The multi-site service moves a flush wave's gates with one call.
        It is a loop over :meth:`update`: a numpy pass over the gates'
        fields cost more than the loop at every size measured, from 2
        gates (28 µs against 4 µs) to 256 (395 µs against 321 µs).
        """
        for gate, decision in zip(gates, decisions):
            gate.update(decision)

    def admit(self) -> bool:
        """Draw one admission decision at the current probability."""
        self.stats.offered += 1
        if self._rng.random() > self.admission_probability:
            self.stats.rejected += 1
            if OBS.enabled:
                self._handles()[3].inc()
            return False
        self.stats.admitted += 1
        if OBS.enabled:
            self._handles()[2].inc()
        return True

    # ------------------------------------------------------------------
    def _handles(self) -> _ObsHandles:
        cache = self._obs_cache
        if cache is None or cache[0] is not OBS.registry:
            registry = OBS.registry
            cache = self._obs_cache = (
                registry,
                registry.gauge(
                    "repro_admission_probability",
                    help="current AIMD admission probability, by site",
                    site=self.site,
                ),
                registry.counter(
                    "repro_admission_requests_total",
                    help="front-end admission outcomes, by site",
                    site=self.site,
                    outcome="admitted",
                ),
                registry.counter(
                    "repro_admission_requests_total",
                    help="front-end admission outcomes, by site",
                    site=self.site,
                    outcome="rejected",
                ),
                registry.counter(
                    "repro_admission_overload_signals_total",
                    help="monitor overload decisions acted on by the "
                    "AIMD gate, by site",
                    site=self.site,
                ),
                registry.counter(
                    "repro_admission_low_confidence_holds_total",
                    help="decisions below the confidence floor that "
                    "held the admission probability, by site",
                    site=self.site,
                ),
            )
        return cache

    # ------------------------------------------------------------------
    # checkpointing (used by the multi-site CapacityService)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Run-local gate state, JSON-serializable."""
        return {
            "admission_probability": self.admission_probability,
            "stats": asdict(self.stats),
            "rng": self._rng.bit_generator.state,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self.admission_probability = float(state["admission_probability"])
        self.stats = AdmissionStats(
            **{k: int(v) for k, v in state["stats"].items()}
        )
        self._rng.bit_generator.state = cast(Dict[str, Any], state["rng"])


class GatedFrontEnd:
    """Website-shaped ``submit`` that asks an :class:`AimdGate` first.

    Exposes the same ``submit`` signature as
    :class:`~repro.simulator.website.MultiTierWebsite`, so an RBE or
    open-loop source can drive it directly in place of the website.
    Rejections complete immediately as drops.
    """

    def __init__(
        self, sim: Simulator, gate: AimdGate, website: MultiTierWebsite
    ) -> None:
        self.sim = sim
        self.gate = gate
        self.website = website

    def submit(
        self,
        request: Request,
        on_complete: Callable[[CompletedRequest], None],
    ) -> None:
        """Admit or reject one request, then forward to the website."""
        if not self.gate.admit():
            on_complete(
                CompletedRequest(
                    request=request,
                    submit_time=self.sim.now,
                    finish_time=self.sim.now,
                    dropped=True,
                )
            )
            return
        self.website.submit(request, on_complete)


class AdmissionController:
    """Single-site closed loop: canonical monitor + AIMD front-end gate.

    Wires one :class:`~repro.core.monitor.OnlineCapacityMonitor`
    (sampling ``website`` every ``interval`` seconds) to one
    :class:`AimdGate`, and exposes the website's ``submit`` signature so
    an RBE can drive it directly in place of the website.

    The meter must carry a labeler (pipeline-trained and CLI-loaded
    meters do) unless one is passed explicitly — the hardened monitor
    scores every window against ground truth.
    """

    def __init__(
        self,
        sim: Simulator,
        website: MultiTierWebsite,
        meter: CapacityMeter,
        *,
        interval: float = 1.0,
        decrease_factor: float = 0.65,
        increase_step: float = 0.05,
        min_admission: float = 0.05,
        confidence_floor: float = 0.75,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        seed: int = 0,
        site: str = "default",
    ) -> None:
        self.sim = sim
        self.website = website
        self.meter = meter
        self.gate = AimdGate(
            decrease_factor=decrease_factor,
            increase_step=increase_step,
            min_admission=min_admission,
            confidence_floor=confidence_floor,
            seed=seed,
            site=site,
        )
        self._front_end = GatedFrontEnd(sim, self.gate, website)
        self.monitor = OnlineCapacityMonitor(
            meter,
            labeler=labeler,
            retain_decisions=0,
            on_decision=self._on_decision,
        )
        self._sampler: TelemetrySampler = self.monitor.attach(
            sim, website, workload="online", interval=interval, seed=seed
        )

    # ------------------------------------------------------------------
    @property
    def admission_probability(self) -> float:
        return self.gate.admission_probability

    @admission_probability.setter
    def admission_probability(self, value: float) -> None:
        self.gate.admission_probability = value

    @property
    def stats(self) -> AdmissionStats:
        return self.gate.stats

    # ------------------------------------------------------------------
    def _on_decision(self, decision: MonitorDecision) -> None:
        self.gate.update(decision)

    def submit(
        self,
        request: Request,
        on_complete: Callable[[CompletedRequest], None],
    ) -> None:
        """Admit or reject one request, then forward to the website."""
        self._front_end.submit(request, on_complete)

    def stop(self) -> None:
        self._sampler.stop()
