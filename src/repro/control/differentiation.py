"""Class-based service differentiation under overload.

The paper motivates capacity measurement with QoS provisioning: "for
input traffic of multi-class requests, server capacity information can
also be used by a back-end scheduler to calculate the portion of the
capacity to be allocated to each class" (Section I).

:class:`ClassDifferentiator` is that scheduler's front-end form: when
the coordinated predictor signals overload it sheds *browse*-class
interactions first, protecting *order*-class transactions — the ones
that carry revenue in the TPC-W bookstore.  Only if shedding all
sheddable browse traffic is not enough does it start rejecting order
traffic too; during recovery the order class is restored first.

Like :class:`~repro.control.admission.AdmissionController`, the sensing
path is the canonical :class:`~repro.core.monitor.OnlineCapacityMonitor`
and every decision's telemetry confidence is checked against
``confidence_floor`` before the per-class probabilities move — a held
or mostly-substituted vote moves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..core.capacity import CapacityMeter
from ..core.monitor import MonitorDecision, OnlineCapacityMonitor
from ..simulator.engine import Simulator
from ..simulator.website import (
    BROWSE,
    CompletedRequest,
    MultiTierWebsite,
    ORDER,
    Request,
)
from ..telemetry.sampler import TelemetrySampler, WindowStats

__all__ = ["ClassStats", "ClassDifferentiator"]


@dataclass
class ClassStats:
    """Per-class admission counters."""

    offered: Dict[str, int] = field(
        default_factory=lambda: {BROWSE: 0, ORDER: 0}
    )
    admitted: Dict[str, int] = field(
        default_factory=lambda: {BROWSE: 0, ORDER: 0}
    )
    rejected: Dict[str, int] = field(
        default_factory=lambda: {BROWSE: 0, ORDER: 0}
    )
    #: decisions below the confidence floor that moved no probability
    low_confidence_holds: int = 0

    def rejection_rate(self, category: str) -> float:
        offered = self.offered[category]
        return self.rejected[category] / offered if offered else 0.0


class ClassDifferentiator:
    """Two-class overload gate: shed browse traffic before order traffic.

    Exposes the website's ``submit`` signature so an RBE or open-loop
    source can drive it directly.
    """

    def __init__(
        self,
        sim: Simulator,
        website: MultiTierWebsite,
        meter: CapacityMeter,
        *,
        interval: float = 1.0,
        decrease_factor: float = 0.6,
        increase_step: float = 0.08,
        min_browse_admission: float = 0.02,
        min_order_admission: float = 0.3,
        confidence_floor: float = 0.75,
        labeler: Optional[Callable[[WindowStats], int]] = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if increase_step <= 0:
            raise ValueError("increase_step must be positive")
        if not 0.0 <= confidence_floor <= 1.0:
            raise ValueError("confidence_floor must be in [0, 1]")
        self.sim = sim
        self.website = website
        self.meter = meter
        self.decrease_factor = decrease_factor
        self.increase_step = increase_step
        self.min_browse_admission = min_browse_admission
        self.min_order_admission = min_order_admission
        self.confidence_floor = confidence_floor
        #: per-class admission probabilities
        self.admission: Dict[str, float] = {BROWSE: 1.0, ORDER: 1.0}
        self.stats = ClassStats()
        self._rng = np.random.default_rng(seed)
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
    def _on_decision(self, decision: MonitorDecision) -> None:
        if decision.confidence < self.confidence_floor:
            # degraded telemetry: neither shed on a stale overload vote
            # nor re-admit the crowd on a blind "healthy" one
            self.stats.low_confidence_holds += 1
            return
        if decision.prediction.overloaded:
            browse = self.admission[BROWSE]
            if browse > self.min_browse_admission:
                # shed the sheddable class first
                self.admission[BROWSE] = max(
                    self.min_browse_admission,
                    browse * self.decrease_factor,
                )
            else:
                # browse already floored: the order class must give
                self.admission[ORDER] = max(
                    self.min_order_admission,
                    self.admission[ORDER] * self.decrease_factor,
                )
        else:
            # recover the protected class first
            if self.admission[ORDER] < 1.0:
                self.admission[ORDER] = min(
                    1.0, self.admission[ORDER] + self.increase_step
                )
            else:
                self.admission[BROWSE] = min(
                    1.0, self.admission[BROWSE] + self.increase_step
                )

    # ------------------------------------------------------------------
    def submit(
        self,
        request: Request,
        on_complete: Callable[[CompletedRequest], None],
    ) -> None:
        """Admit or reject by class, then forward to the website."""
        category = request.category
        self.stats.offered[category] += 1
        if self._rng.random() > self.admission[category]:
            self.stats.rejected[category] += 1
            on_complete(
                CompletedRequest(
                    request=request,
                    submit_time=self.sim.now,
                    finish_time=self.sim.now,
                    dropped=True,
                )
            )
            return
        self.stats.admitted[category] += 1
        self.website.submit(request, on_complete)

    def stop(self) -> None:
        self._sampler.stop()
