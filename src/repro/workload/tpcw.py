"""TPC-W workload model: the 14 web interactions and standard mixes.

TPC-W (www.tpc.org/tpcw) defines 14 interaction types for an online
bookstore and classifies each as **Browse** (browsing/searching the
site) or **Order** (explicit part of the ordering process).  The three
standard mixes differ in the Browse:Order split:

* Browsing mix — 95% browse, 5% order
* Shopping mix — 80% browse, 20% order (the WIPS mix)
* Ordering mix — 50% browse, 50% order

Interaction resource demands below are calibrated against the paper's
testbed behaviour rather than copied from any implementation: browse
interactions are dominated by heavy read queries (best sellers,
full-text search) and stress the database; order interactions are
servlet/transaction heavy and stress the application server.  With the
calibrated hardware specs this reproduces the paper's observation that
the browsing mix bottlenecks the DB tier and the ordering mix the app
tier, with the shopping mix near the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..simulator.website import BROWSE, ORDER, Request

__all__ = [
    "INTERACTIONS",
    "BROWSE_INTERACTIONS",
    "ORDER_INTERACTIONS",
    "TrafficMix",
    "BROWSING_MIX",
    "SHOPPING_MIX",
    "ORDERING_MIX",
    "STANDARD_MIXES",
    "make_unknown_mix",
    "MarkovSessionModel",
]


def _ms(x: float) -> float:
    return x / 1000.0


#: The 14 TPC-W interactions with calibrated per-tier demands.
#: Demands are nominal CPU seconds on the reference (app-tier) machine.
INTERACTIONS: Dict[str, Request] = {
    r.name: r
    for r in [
        # ---- Browse class: light servlets, some very heavy queries ----
        Request(
            "home", BROWSE, app_demand=_ms(8), db_demand=_ms(5),
            app_footprint_kb=24, db_footprint_kb=512,
            response_bytes=9000, db_result_bytes=1500,
        ),
        Request(
            "new_products", BROWSE, app_demand=_ms(10), db_demand=_ms(50),
            app_footprint_kb=28, db_footprint_kb=6 * 1024,
            response_bytes=12000, db_result_bytes=6000,
        ),
        Request(
            "best_sellers", BROWSE, app_demand=_ms(10), db_demand=_ms(100),
            app_footprint_kb=28, db_footprint_kb=10 * 1024,
            response_bytes=12000, db_result_bytes=6000,
        ),
        Request(
            "product_detail", BROWSE, app_demand=_ms(6), db_demand=_ms(8),
            app_footprint_kb=20, db_footprint_kb=768,
            response_bytes=10000, db_result_bytes=2500,
        ),
        Request(
            "search_request", BROWSE, app_demand=_ms(5), db_demand=_ms(2),
            app_footprint_kb=16, db_footprint_kb=128,
            response_bytes=6000, db_result_bytes=500,
        ),
        Request(
            "search_results", BROWSE, app_demand=_ms(12), db_demand=_ms(120),
            app_footprint_kb=32, db_footprint_kb=12 * 1024,
            response_bytes=14000, db_result_bytes=8000,
        ),
        # ---- Order class: heavy servlets/transactions, light queries ----
        Request(
            "shopping_cart", ORDER, app_demand=_ms(25), db_demand=_ms(10),
            app_footprint_kb=48, db_footprint_kb=512,
            response_bytes=9000, db_result_bytes=1500,
        ),
        Request(
            "customer_registration", ORDER, app_demand=_ms(30),
            db_demand=_ms(4),
            app_footprint_kb=56, db_footprint_kb=256,
            response_bytes=7000, db_result_bytes=600,
        ),
        Request(
            "buy_request", ORDER, app_demand=_ms(35), db_demand=_ms(12),
            app_footprint_kb=56, db_footprint_kb=640,
            response_bytes=9000, db_result_bytes=1800,
        ),
        Request(
            "buy_confirm", ORDER, app_demand=_ms(45), db_demand=_ms(15),
            app_footprint_kb=64, db_footprint_kb=768,
            response_bytes=8000, db_result_bytes=1200,
        ),
        Request(
            "order_inquiry", ORDER, app_demand=_ms(15), db_demand=_ms(5),
            app_footprint_kb=40, db_footprint_kb=384,
            response_bytes=6000, db_result_bytes=900,
        ),
        Request(
            "order_display", ORDER, app_demand=_ms(20), db_demand=_ms(10),
            app_footprint_kb=48, db_footprint_kb=512,
            response_bytes=9000, db_result_bytes=2000,
        ),
        Request(
            "admin_request", ORDER, app_demand=_ms(18), db_demand=_ms(6),
            app_footprint_kb=40, db_footprint_kb=384,
            response_bytes=7000, db_result_bytes=1000,
        ),
        Request(
            "admin_confirm", ORDER, app_demand=_ms(40), db_demand=_ms(20),
            app_footprint_kb=64, db_footprint_kb=1024,
            response_bytes=7000, db_result_bytes=1500,
        ),
    ]
}

_REQUESTS: Tuple[Request, ...] = tuple(INTERACTIONS.values())

BROWSE_INTERACTIONS: Tuple[str, ...] = tuple(
    name for name, r in INTERACTIONS.items() if r.category == BROWSE
)
ORDER_INTERACTIONS: Tuple[str, ...] = tuple(
    name for name, r in INTERACTIONS.items() if r.category == ORDER
)

#: Relative frequency of interactions *within* their class.
_DEFAULT_BROWSE_WEIGHTS: Dict[str, float] = {
    "home": 0.20,
    "new_products": 0.15,
    "best_sellers": 0.10,
    "product_detail": 0.25,
    "search_request": 0.15,
    "search_results": 0.15,
}
_DEFAULT_ORDER_WEIGHTS: Dict[str, float] = {
    "shopping_cart": 0.25,
    "customer_registration": 0.10,
    "buy_request": 0.15,
    "buy_confirm": 0.15,
    "order_inquiry": 0.15,
    "order_display": 0.10,
    "admin_request": 0.05,
    "admin_confirm": 0.05,
}


def _normalized(weights: Mapping[str, float], names: Iterable[str]) -> Dict[str, float]:
    selected = {n: float(weights[n]) for n in names}
    total = sum(selected.values())
    if total <= 0:
        raise ValueError("weights must have positive total")
    if any(v < 0 for v in selected.values()):
        raise ValueError("weights must be non-negative")
    return {n: v / total for n, v in selected.items()}


@dataclass(frozen=True)
class TrafficMix:
    """A distribution over the 14 interactions.

    ``browse_fraction`` is the probability that the next interaction is
    of the Browse class; within each class, interactions follow the
    class weight tables.
    """

    name: str
    browse_fraction: float
    browse_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_BROWSE_WEIGHTS)
    )
    order_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_ORDER_WEIGHTS)
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.browse_fraction <= 1.0:
            raise ValueError("browse_fraction must be in [0, 1]")
        object.__setattr__(
            self,
            "browse_weights",
            _normalized(self.browse_weights, BROWSE_INTERACTIONS),
        )
        object.__setattr__(
            self,
            "order_weights",
            _normalized(self.order_weights, ORDER_INTERACTIONS),
        )
        # the normalized CDF Generator.choice would build on every draw;
        # not a field, so asdict, equality and cache keys ignore it
        probs = self.probabilities()
        cdf = np.array([probs[n] for n in INTERACTIONS], dtype=float).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)

    # ------------------------------------------------------------------
    def probabilities(self) -> Dict[str, float]:
        """Stationary probability of each of the 14 interactions."""
        probs = {
            n: self.browse_fraction * w for n, w in self.browse_weights.items()
        }
        probs.update(
            {
                n: (1.0 - self.browse_fraction) * w
                for n, w in self.order_weights.items()
            }
        )
        return probs

    def sample(self, rng: np.random.Generator) -> Request:
        """Draw one interaction i.i.d. from the mix.

        The same draw, value and generator state as
        ``rng.choice(14, p=...)``, which searches one ``random()`` in
        this CDF.
        """
        return _REQUESTS[self._cdf.searchsorted(rng.random(), side="right")]

    # ------------------------------------------------------------------
    def mean_demands(self) -> Dict[str, float]:
        """Expected nominal CPU demand per request on each tier."""
        probs = self.probabilities()
        app = sum(p * INTERACTIONS[n].app_demand for n, p in probs.items())
        db = sum(p * INTERACTIONS[n].db_demand for n, p in probs.items())
        return {"app": app, "db": db}

    def with_browse_fraction(self, fraction: float, name: Optional[str] = None) -> "TrafficMix":
        """Copy of this mix with a different Browse:Order split."""
        return replace(
            self, name=name or f"{self.name}@{fraction:.2f}", browse_fraction=fraction
        )


BROWSING_MIX = TrafficMix("browsing", browse_fraction=0.95)
SHOPPING_MIX = TrafficMix("shopping", browse_fraction=0.80)
ORDERING_MIX = TrafficMix("ordering", browse_fraction=0.50)

STANDARD_MIXES: Dict[str, TrafficMix] = {
    m.name: m for m in (BROWSING_MIX, SHOPPING_MIX, ORDERING_MIX)
}


def make_unknown_mix(
    seed: int = 7, browse_fraction: float = 0.70
) -> TrafficMix:
    """A mix unlike either training extreme (paper Section IV.A).

    The paper generates its *unknown* workload by altering the RBE
    transition probabilities.  We perturb the within-class weight tables
    with a seeded multiplicative jitter and move the Browse:Order split
    between the two training extremes, so the resulting traffic matches
    neither training synopsis.
    """
    rng = np.random.default_rng(seed)
    browse = {
        n: w * float(rng.uniform(0.5, 2.0))
        for n, w in _DEFAULT_BROWSE_WEIGHTS.items()
    }
    order = {
        n: w * float(rng.uniform(0.5, 2.0))
        for n, w in _DEFAULT_ORDER_WEIGHTS.items()
    }
    return TrafficMix(
        f"unknown-{seed}",
        browse_fraction=browse_fraction,
        browse_weights=browse,
        order_weights=order,
    )


#: Canonical navigation edges of the TPC-W bookstore used by the Markov
#: session model: after the key, a user tends to visit the value next.
_FLOW_EDGES: Dict[str, str] = {
    "home": "search_request",
    "search_request": "search_results",
    "search_results": "product_detail",
    "new_products": "product_detail",
    "best_sellers": "product_detail",
    "product_detail": "shopping_cart",
    "shopping_cart": "buy_request",
    "customer_registration": "buy_request",
    "buy_request": "buy_confirm",
    "buy_confirm": "order_inquiry",
    "order_inquiry": "order_display",
    "order_display": "home",
    "admin_request": "admin_confirm",
    "admin_confirm": "home",
}


class MarkovSessionModel:
    """Session-level navigation model for an Emulated Browser.

    With probability ``continuity`` the browser follows the canonical
    TPC-W navigation edge from its current page; otherwise it jumps to
    an interaction drawn from the mix distribution.  ``continuity=0``
    degenerates to i.i.d. sampling from the mix.
    """

    def __init__(self, mix: TrafficMix, continuity: float = 0.3):
        if not 0.0 <= continuity < 1.0:
            raise ValueError("continuity must be in [0, 1)")
        self.mix = mix
        self.continuity = continuity
        self._names = list(INTERACTIONS)
        self._index = {n: i for i, n in enumerate(self._names)}

    # ------------------------------------------------------------------
    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic 14x14 matrix of the navigation chain."""
        n = len(self._names)
        probs = self.mix.probabilities()
        base = np.array([probs[name] for name in self._names])
        matrix = np.tile(base, (n, 1)) * (1.0 - self.continuity)
        for src, dst in _FLOW_EDGES.items():
            matrix[self._index[src], self._index[dst]] += self.continuity
        return matrix

    def stationary_distribution(self, tol: float = 1e-12) -> Dict[str, float]:
        """Stationary distribution of the chain (power iteration)."""
        matrix = self.transition_matrix()
        pi = np.full(len(self._names), 1.0 / len(self._names))
        for _ in range(10_000):
            nxt = pi @ matrix
            if np.abs(nxt - pi).max() < tol:
                pi = nxt
                break
            pi = nxt
        return {name: float(p) for name, p in zip(self._names, pi)}

    def stationary_browse_fraction(self) -> float:
        pi = self.stationary_distribution()
        return sum(pi[n] for n in BROWSE_INTERACTIONS)

    # ------------------------------------------------------------------
    def first(self, rng: np.random.Generator) -> Request:
        """Entry page of a new session."""
        return INTERACTIONS["home"] if rng.random() < 0.5 else self.mix.sample(rng)

    def next(self, current: Request, rng: np.random.Generator) -> Request:
        """Next interaction after ``current``."""
        if rng.random() < self.continuity:
            follow = _FLOW_EDGES.get(current.name)
            if follow is not None:
                return INTERACTIONS[follow]
        return self.mix.sample(rng)
