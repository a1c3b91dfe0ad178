"""Two-level coordinated predictor (paper Section III).

The coordinated predictor combines the per-(tier, workload) synopsis
predictions into one site-wide overload decision plus a bottleneck-tier
identification.  Its structure mirrors a two-level adaptive branch
predictor (Yeh & Patt):

* **Global Pattern Table (GPT)** — the m synopsis predictions in a
  sampling interval form an m-bit Global Pattern Vector (GPV); the GPT
  enumerates all 2^m patterns.
* **Local History Tables (LHTs)** — each GPV pattern owns an LHT
  indexed by the last *h* outcomes observed under that pattern; each
  entry is a saturating counter Hc (Local History Bits).
* **decision function** — ``λ(Hc)`` predicts overload when Hc > δ,
  underload when Hc < −δ, and falls back to the configured scheme
  inside the confidence band: *optimistic* → underload, *pessimistic*
  → overload.  As a reproduction refinement (on by default, ablatable
  via ``pattern_fallback=False``), an undecided history cell first
  consults the *pattern-level* counter — the same ±1 tally aggregated
  over all histories of the GPV — before resorting to the scheme: a
  workload the synopses were never trained on tends to produce known
  vote patterns along unseen history paths, and the pattern aggregate
  recovers exactly the paper's ~80% accuracy on unknown traffic.
* **Bottleneck Pattern Table (BPT)** — per-GPV vote vectors over
  tiers; ``λb(bK..b1) = argmax_i bi`` names the bottleneck tier, and is
  consulted only when the state prediction is overload.

Training shifts ground-truth outcomes into each pattern's history
register; online prediction shifts the coordinated prediction itself
(speculative history, as a branch predictor does), with
:meth:`CoordinatedPredictor.observe` available to repair the history
when delayed ground truth arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import OBS
from ..telemetry.dataset import OVERLOAD, UNDERLOAD
from .synopsis import PerformanceSynopsis

__all__ = [
    "Scheme",
    "CoordinatedPrediction",
    "CoordinatedInstance",
    "CoordinatedPredictor",
]


class Scheme(Enum):
    """Tie-break behaviour of λ inside the confidence band [−δ, δ]."""

    OPTIMISTIC = "optimistic"  # φ(Hc) = 0: assume underload
    PESSIMISTIC = "pessimistic"  # φ(Hc) = 1: assume overload


@dataclass(frozen=True)
class CoordinatedPrediction:
    """One interval's coordinated decision.

    ``degraded`` marks a decision made from incomplete telemetry;
    ``abstained`` lists the synopsis indices whose vote had to be
    substituted (held last vote, else training prior) and
    ``imputed_attributes`` counts attribute values filled from training
    marginals across the non-abstaining synopses.  Clean-telemetry
    predictions carry the defaults, so equality comparisons against
    the offline pipeline are unaffected.
    """

    state: int
    bottleneck: Optional[str]
    gpv: int
    hc: float
    confident: bool
    synopsis_votes: Tuple[int, ...]
    degraded: bool = False
    abstained: Tuple[int, ...] = ()
    imputed_attributes: int = 0

    @property
    def overloaded(self) -> bool:
        return self.state == OVERLOAD


@dataclass(frozen=True)
class CoordinatedInstance:
    """A training instance for the coordinated predictor.

    ``metrics`` maps tier name to that tier's window-averaged metric
    dict; ``label`` is the ground-truth site state and ``bottleneck``
    the ground-truth bottleneck tier (meaningful when overloaded).
    """

    metrics: Mapping[str, Mapping[str, float]]
    label: int
    bottleneck: Optional[str] = None


class CoordinatedPredictor:
    """GPT/LHT/BPT predictor over a set of performance synopses."""

    def __init__(
        self,
        synopses: Sequence[PerformanceSynopsis],
        tiers: Sequence[str],
        *,
        history_bits: int = 3,
        delta: float = 5.0,
        scheme: Scheme = Scheme.OPTIMISTIC,
        counter_limit: float = 16.0,
        pattern_fallback: bool = True,
        pattern_counter_limit: float = 64.0,
    ):
        if not synopses:
            raise ValueError("need at least one synopsis")
        if not 1 <= history_bits <= 12:
            raise ValueError("history_bits must be in 1..12")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if counter_limit <= delta:
            raise ValueError("counter_limit must exceed delta")
        for synopsis in synopses:
            if not synopsis.is_trained:
                raise ValueError(f"{synopsis!r} is not trained")
            if synopsis.tier not in tiers:
                raise ValueError(
                    f"synopsis tier {synopsis.tier!r} not in tiers {list(tiers)}"
                )
        self.synopses = list(synopses)
        self.tiers = list(tiers)
        self.history_bits = history_bits
        self.delta = delta
        self.scheme = scheme
        self.counter_limit = counter_limit
        self.pattern_fallback = pattern_fallback
        self.pattern_counter_limit = pattern_counter_limit

        m = len(self.synopses)
        n_patterns = 2**m
        n_histories = 2**history_bits
        # LHT counters: one row of 2^h saturating counters per GPV
        self._lht = np.zeros((n_patterns, n_histories))
        # pattern-level saturating counters (fallback tier of λ)
        self._gpt = np.zeros(n_patterns)
        # per-pattern local history register (last h outcomes)
        self._history = np.zeros(n_patterns, dtype=int)
        # BPT: per-GPV vote counters over tiers
        self._bpt = np.zeros((n_patterns, len(self.tiers)))
        self._last_gpv: Optional[int] = None
        self._last_hist: int = 0
        # last concrete (non-substituted) vote per synopsis — the
        # hold-last-vote fill for abstaining synopses in degraded mode
        self._last_votes: List[Optional[int]] = [None] * m
        # cached metric handles, valid while OBS.registry is the same
        # object (transient; never serialized)
        self._obs_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def n_synopses(self) -> int:
        return len(self.synopses)

    def reset_history(self) -> None:
        """Clear the history registers (between independent runs)."""
        self._history[:] = 0
        self._last_gpv = None
        self._last_hist = 0
        self._last_votes = [None] * len(self.synopses)

    def synopsis_votes(
        self, metrics: Mapping[str, Mapping[str, float]]
    ) -> Tuple[int, ...]:
        """Each synopsis' prediction Ri from its own tier's metrics."""
        votes = []
        for synopsis in self.synopses:
            try:
                tier_metrics = metrics[synopsis.tier]
            except KeyError:
                raise KeyError(
                    f"no metrics supplied for tier {synopsis.tier!r}"
                ) from None
            votes.append(synopsis.predict(tier_metrics))
        return tuple(votes)

    @staticmethod
    def _gpv(votes: Sequence[int]) -> int:
        gpv = 0
        for i, vote in enumerate(votes):
            if vote not in (0, 1):
                raise ValueError("synopsis votes must be 0/1")
            gpv |= vote << i
        return gpv

    def _shift_history(self, gpv: int, outcome: int) -> None:
        mask = (1 << self.history_bits) - 1
        self._history[gpv] = ((self._history[gpv] << 1) | outcome) & mask

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_instance(self, instance: CoordinatedInstance) -> None:
        """One step of LHT/BPT training on a ground-truth instance."""
        votes = self.synopsis_votes(instance.metrics)
        gpv = self._gpv(votes)
        hist = self._history[gpv]
        step = 1.0 if instance.label == OVERLOAD else -1.0
        self._lht[gpv, hist] = float(
            np.clip(
                self._lht[gpv, hist] + step,
                -self.counter_limit,
                self.counter_limit,
            )
        )
        self._gpt[gpv] = float(
            np.clip(
                self._gpt[gpv] + step,
                -self.pattern_counter_limit,
                self.pattern_counter_limit,
            )
        )
        if instance.label == OVERLOAD and instance.bottleneck is not None:
            for k, tier in enumerate(self.tiers):
                self._bpt[gpv, k] += 1.0 if tier == instance.bottleneck else -1.0
        self._shift_history(gpv, instance.label)

    def train(self, instances: Sequence[CoordinatedInstance]) -> "CoordinatedPredictor":
        """Train on a time-ordered sequence of instances."""
        self.reset_history()
        for instance in instances:
            self.train_instance(instance)
        self.reset_history()
        return self

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _decide(self, hc: float, gpv: int) -> Tuple[int, bool]:
        if hc > self.delta:
            return OVERLOAD, True
        if hc < -self.delta:
            return UNDERLOAD, True
        if self.pattern_fallback:
            pattern_count = self._gpt[gpv]
            if pattern_count > self.delta:
                return OVERLOAD, True
            if pattern_count < -self.delta:
                return UNDERLOAD, True
        fallback = (
            UNDERLOAD if self.scheme is Scheme.OPTIMISTIC else OVERLOAD
        )
        return fallback, False

    def bpt_vote(self, gpv: int) -> Optional[str]:
        """λb for one pattern: the BPT row's plurality tier, or ``None``.

        An all-zero row means the pattern never received bottleneck
        training; naming an arbitrary tier (``argmax`` of zeros picks
        index 0) would count an untrained guess as a real answer, so
        the vote abstains instead.
        """
        row = self._bpt[gpv]
        if not row.any():
            return None
        return self.tiers[int(np.argmax(row))]

    def predict(
        self, metrics: Mapping[str, Mapping[str, float]]
    ) -> CoordinatedPrediction:
        """Coordinated decision for one interval's per-tier metrics.

        The prediction is shifted into the pattern's history register
        (speculative); call :meth:`observe` when ground truth becomes
        available to keep the history exact.
        """
        return self._predict_from_votes(self.synopsis_votes(metrics))

    def _predict_from_votes(
        self,
        votes: Tuple[int, ...],
        *,
        degraded: bool = False,
        abstained: Tuple[int, ...] = (),
        imputed_attributes: int = 0,
    ) -> CoordinatedPrediction:
        """The GPT/LHT decision for one fully-resolved vote vector."""
        gpv = self._gpv(votes)
        hist = int(self._history[gpv])
        hc = float(self._lht[gpv, hist])
        state, confident = self._decide(hc, gpv)
        bottleneck = self.bpt_vote(gpv) if state == OVERLOAD else None
        self._shift_history(gpv, state)
        self._last_gpv = gpv
        self._last_hist = hist
        substituted = set(abstained)
        for i, vote in enumerate(votes):
            if i not in substituted:
                self._last_votes[i] = vote
        if OBS.enabled:
            self._count_decision(gpv, confident, degraded)
        return CoordinatedPrediction(
            state=state,
            bottleneck=bottleneck,
            gpv=gpv,
            hc=hc,
            confident=confident,
            synopsis_votes=votes,
            degraded=degraded,
            abstained=abstained,
            imputed_attributes=imputed_attributes,
        )

    def _count_decision(self, gpv: int, confident: bool, degraded: bool) -> None:
        """The metrics of one GPT/LHT decision."""
        cache = self._obs_cache
        if cache is None or cache[0] is not OBS.registry:
            registry = OBS.registry
            cache = self._obs_cache = (
                registry,
                {
                    flag: registry.counter(
                        "repro_coordinator_decisions_total",
                        help="coordinated GPT/LHT decisions, by "
                        "confidence source",
                        confident=flag,
                    )
                    for flag in ("yes", "no")
                },
                registry.gauge(
                    "repro_coordinator_last_gpv",
                    help="global pattern vector of the latest decision",
                ),
                registry.counter(
                    "repro_coordinator_degraded_decisions_total",
                    help="decisions made from imputed or substituted "
                    "votes",
                ),
            )
        cache[1]["yes" if confident else "no"].inc()
        cache[2].set(float(gpv))
        if degraded:
            cache[3].inc()

    def predict_votes(
        self, votes: Sequence[int]
    ) -> CoordinatedPrediction:
        """Clean-path decision from precomputed synopsis votes.

        The multi-site service computes synopsis votes for many sites in
        one vectorized ``predict_batch`` call and hands each site's vote
        vector here; the GPT/LHT decision (including the speculative
        history shift) is exactly the one :meth:`predict` would have
        made from the same metrics.  Callers must only pass votes
        obtained from *complete* telemetry — degraded windows go through
        :meth:`predict_degraded`.
        """
        if len(votes) != len(self.synopses):
            raise ValueError(
                f"{len(votes)} votes for {len(self.synopses)} synopses"
            )
        return self._predict_from_votes(tuple(int(v) for v in votes))

    def commit_clean_votes(
        self, prediction: CoordinatedPrediction, hist: int
    ) -> None:
        """Record the run-local registers for one fleet-decided window.

        The vectorized fleet backend computes the GPT/LHT decision and
        the observe() repair directly on the shared tables (which this
        predictor sees through its adopted views); what it cannot reach
        are the per-predictor scalar registers.  This sets them exactly
        as a clean ``predict_votes()`` + ``observe()`` pair would leave
        them: every vote is concrete (so all last-vote slots update),
        ``_last_hist`` is the history the decision consulted, and the
        pending-observation marker is cleared.  The decision's metrics
        are the ones ``predict_votes()`` emits.
        """
        for i, vote in enumerate(prediction.synopsis_votes):
            self._last_votes[i] = int(vote)
        self._last_hist = int(hist)
        self._last_gpv = None
        if OBS.enabled:
            self._count_decision(prediction.gpv, prediction.confident, False)

    def predict_degraded(
        self,
        metrics: Mapping[str, Mapping[str, float]],
        *,
        min_votes: Optional[int] = None,
        max_imputed_fraction: float = 0.5,
    ) -> Optional[CoordinatedPrediction]:
        """Quorum-ruled decision over possibly-degraded telemetry.

        Each synopsis votes through
        :meth:`~repro.core.synopsis.PerformanceSynopsis.predict_degraded`:
        a tier with partial counters is imputed from training marginals
        (at most ``max_imputed_fraction`` of its selected attributes),
        and a tier that is absent or too incomplete *abstains*.  When at
        least ``min_votes`` synopses (default: a strict majority) cast
        concrete votes, the abstaining GPV bits are filled with each
        synopsis' last concrete vote (its training-majority prior when
        it has never voted) and the usual GPT/LHT decision runs over the
        completed pattern, flagged ``degraded``.

        When quorum fails the method returns ``None`` **without touching
        any history register** — the window is treated as unmeasurable
        and the caller applies its documented fallback (the online
        monitor holds the last decision with decaying confidence).
        Clean telemetry takes exactly the :meth:`predict` path, so a
        zero-fault stream is bit-for-bit unaffected.
        """
        m = len(self.synopses)
        quorum = (m // 2 + 1) if min_votes is None else min_votes
        votes: List[Optional[int]] = []
        imputed = 0
        for synopsis in self.synopses:
            tier_metrics = metrics.get(synopsis.tier)
            limit = max(
                0, int(max_imputed_fraction * len(synopsis.attributes))
            )
            vote, n_imputed = synopsis.predict_degraded(
                tier_metrics, max_imputed=limit
            )
            votes.append(vote)
            if vote is not None:
                imputed += n_imputed
        abstained = tuple(i for i, vote in enumerate(votes) if vote is None)
        if m - len(abstained) < quorum:
            if OBS.enabled:
                OBS.inc(
                    "repro_coordinator_quorum_failures_total",
                    help="windows where too few synopses cast concrete votes",
                )
            return None
        if not abstained and not imputed:
            return self._predict_from_votes(tuple(votes))
        filled = tuple(
            vote
            if vote is not None
            else (
                self._last_votes[i]
                if self._last_votes[i] is not None
                else int(getattr(self.synopses[i], "prior_vote", UNDERLOAD))
            )
            for i, vote in enumerate(votes)
        )
        return self._predict_from_votes(
            filled,
            degraded=True,
            abstained=abstained,
            imputed_attributes=imputed,
        )

    def observe(
        self,
        truth: int,
        *,
        bottleneck: Optional[str] = None,
        adapt: bool = False,
    ) -> None:
        """Feed back delayed ground truth for the last prediction.

        Always repairs the speculative history bit.  With ``adapt=True``
        the predictor also keeps *learning online*: the same ±1 counter
        update used in training is applied to the (pattern, history)
        cell the last prediction consulted — and to the BPT when a
        ground-truth ``bottleneck`` accompanies an overload.  This turns
        the coordinated predictor into a continuously adapting one,
        shrinking the supervised-learning gap the paper observes on
        unknown traffic (Section V.C).

        Each prediction accepts exactly one observation: a second call
        without an intervening :meth:`predict` raises, since it would
        double-apply the adaptive counter update and re-repair history.
        """
        if truth not in (UNDERLOAD, OVERLOAD):
            raise ValueError("truth must be 0/1")
        gpv = self._last_gpv
        if gpv is None:
            raise RuntimeError(
                "observe() without a preceding predict() "
                "(or called twice for the same prediction)"
            )
        if adapt:
            step = 1.0 if truth == OVERLOAD else -1.0
            self._lht[gpv, self._last_hist] = float(
                np.clip(
                    self._lht[gpv, self._last_hist] + step,
                    -self.counter_limit,
                    self.counter_limit,
                )
            )
            self._gpt[gpv] = float(
                np.clip(
                    self._gpt[gpv] + step,
                    -self.pattern_counter_limit,
                    self.pattern_counter_limit,
                )
            )
            if truth == OVERLOAD and bottleneck is not None:
                if bottleneck not in self.tiers:
                    raise ValueError(f"unknown bottleneck tier {bottleneck!r}")
                for k, tier in enumerate(self.tiers):
                    self._bpt[gpv, k] += 1.0 if tier == bottleneck else -1.0
        self._history[gpv] = (self._history[gpv] & ~1) | truth
        self._last_gpv = None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def runtime_state(self) -> Dict[str, object]:
        """Run-local speculative state (history registers, last votes).

        :meth:`to_dict` deliberately omits this — a freshly loaded
        predictor starts clean — but a *checkpointed* online monitor
        must resume with the exact registers it crashed with, or its
        subsequent decisions diverge from an uninterrupted run.
        """
        return {
            "history": self._history.tolist(),
            "last_gpv": self._last_gpv,
            "last_hist": self._last_hist,
            "last_votes": list(self._last_votes),
        }

    def restore_runtime_state(self, state: Mapping[str, object]) -> None:
        """Restore registers captured by :meth:`runtime_state`."""
        history = np.asarray(state["history"], dtype=int)
        if history.shape != self._history.shape:
            raise ValueError(
                f"history register shape {history.shape} does not match "
                f"{self._history.shape}"
            )
        # in place, so table views adopted by a fleet backend stay live
        self._history[...] = history
        last_gpv = state["last_gpv"]
        self._last_gpv = None if last_gpv is None else int(last_gpv)
        self._last_hist = int(state["last_hist"])
        last_votes = list(state["last_votes"])
        if len(last_votes) != len(self.synopses):
            raise ValueError(
                f"{len(last_votes)} last votes for "
                f"{len(self.synopses)} synopses"
            )
        self._last_votes = [
            None if vote is None else int(vote) for vote in last_votes
        ]

    # ------------------------------------------------------------------
    # fleet table sharing
    # ------------------------------------------------------------------
    def _check_table_shapes(
        self,
        lht: np.ndarray,
        gpt: np.ndarray,
        bpt: np.ndarray,
        history: Optional[np.ndarray] = None,
    ) -> None:
        expected = {
            "LHT": (lht, self._lht.shape),
            "GPT": (gpt, self._gpt.shape),
            "BPT": (bpt, self._bpt.shape),
        }
        if history is not None:
            expected["history"] = (history, self._history.shape)
        for table, (array, shape) in expected.items():
            if array.shape != shape:
                raise ValueError(
                    f"{table} table shape {array.shape} does not match "
                    f"the predictor's {shape}"
                )

    def adopt_tables(
        self,
        lht: np.ndarray,
        gpt: np.ndarray,
        bpt: np.ndarray,
        history: np.ndarray,
    ) -> None:
        """Re-point the tables at externally owned array views.

        The fleet backend stacks every site's tables into one
        structure-of-arrays block and hands each predictor basic-slice
        views of its shard, so the per-site code path and the vectorized
        fleet path read and write the *same memory* — bit-identity
        between the two is structural, not re-derived.  The views must
        already hold this predictor's current values; shapes are
        validated, contents are the caller's responsibility.
        """
        self._check_table_shapes(lht, gpt, bpt, history)
        if history.dtype != self._history.dtype:
            raise ValueError(
                f"history view dtype {history.dtype} does not match "
                f"{self._history.dtype}"
            )
        self._lht = lht
        self._gpt = gpt
        self._bpt = bpt
        self._history = history

    def table_state(self) -> Dict[str, object]:
        """The adaptive tables as JSON-ready lists (fleet checkpoints)."""
        return {
            "lht": self._lht.tolist(),
            "gpt": self._gpt.tolist(),
            "bpt": self._bpt.tolist(),
        }

    def set_tables(
        self, lht: np.ndarray, gpt: np.ndarray, bpt: np.ndarray
    ) -> None:
        """Overwrite table *values* in place (checkpoint restore).

        Unlike :meth:`from_dict`'s construction-time assignment this
        never replaces the arrays, so views adopted through
        :meth:`adopt_tables` stay live.
        """
        lht = np.asarray(lht, dtype=float)
        gpt = np.asarray(gpt, dtype=float)
        bpt = np.asarray(bpt, dtype=float)
        self._check_table_shapes(lht, gpt, bpt)
        self._lht[...] = lht
        self._gpt[...] = gpt
        self._bpt[...] = bpt

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot: synopses, tables and parameters.

        History registers are deliberately *not* saved — they are
        run-local speculative state; a restored predictor starts with
        clean histories, exactly like one whose ``reset_history`` was
        called between runs.
        """
        return {
            "tiers": list(self.tiers),
            "history_bits": self.history_bits,
            "delta": self.delta,
            "scheme": self.scheme.value,
            "counter_limit": self.counter_limit,
            "pattern_fallback": self.pattern_fallback,
            "pattern_counter_limit": self.pattern_counter_limit,
            "synopses": [synopsis.to_dict() for synopsis in self.synopses],
            "lht": self._lht.tolist(),
            "gpt": self._gpt.tolist(),
            "bpt": self._bpt.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CoordinatedPredictor":
        """Rebuild a predictor serialized by :meth:`to_dict`."""
        from .synopsis import PerformanceSynopsis

        synopses = [
            PerformanceSynopsis.from_dict(item)
            for item in payload["synopses"]
        ]
        predictor = cls(
            synopses,
            list(payload["tiers"]),
            history_bits=int(payload["history_bits"]),
            delta=float(payload["delta"]),
            scheme=Scheme(payload["scheme"]),
            counter_limit=float(payload["counter_limit"]),
            pattern_fallback=bool(payload["pattern_fallback"]),
            pattern_counter_limit=float(payload["pattern_counter_limit"]),
        )
        lht = np.array(payload["lht"], dtype=float)
        gpt = np.array(payload["gpt"], dtype=float)
        bpt = np.array(payload["bpt"], dtype=float)
        n_patterns = 2 ** len(synopses)
        expected = {
            "LHT": (lht, (n_patterns, 2 ** predictor.history_bits)),
            "GPT": (gpt, (n_patterns,)),
            "BPT": (bpt, (n_patterns, len(predictor.tiers))),
        }
        for table, (array, shape) in expected.items():
            if array.shape != shape:
                raise ValueError(
                    f"{table} table shape {array.shape} does not match "
                    f"{len(synopses)} synopses / "
                    f"{predictor.history_bits} history bits / "
                    f"{len(predictor.tiers)} tiers (expected {shape})"
                )
        predictor._lht = lht
        predictor._gpt = gpt
        predictor._bpt = bpt
        return predictor

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, instances: Sequence[CoordinatedInstance]
    ) -> Dict[str, float]:
        """Overload BA and bottleneck accuracy over a test sequence.

        Returns ``overload_ba`` (balanced accuracy of the state
        prediction), ``bottleneck_accuracy`` (fraction of truly
        overloaded windows whose bottleneck tier was named correctly —
        a window whose BPT row abstains counts as incorrect), and raw
        counts.
        """
        self.reset_history()
        tp = tn = fp = fn = 0
        bn_total = bn_correct = 0
        for instance in instances:
            prediction = self.predict(instance.metrics)
            self.observe(instance.label)
            if instance.label == OVERLOAD:
                if prediction.overloaded:
                    tp += 1
                else:
                    fn += 1
                if instance.bottleneck is not None:
                    bn_total += 1
                    # consult the BPT for this pattern even if the state
                    # prediction missed, so the two accuracies decouple;
                    # an abstaining (all-zero) row is simply incorrect
                    voted = self.bpt_vote(prediction.gpv)
                    if voted == instance.bottleneck:
                        bn_correct += 1
            else:
                if prediction.overloaded:
                    fp += 1
                else:
                    tn += 1
        tpr = tp / (tp + fn) if (tp + fn) else 1.0
        tnr = tn / (tn + fp) if (tn + fp) else 1.0
        return {
            "overload_ba": 0.5 * (tpr + tnr),
            "bottleneck_accuracy": bn_correct / bn_total if bn_total else 1.0,
            "tp": float(tp),
            "tn": float(tn),
            "fp": float(fp),
            "fn": float(fn),
            "bottleneck_windows": float(bn_total),
        }
