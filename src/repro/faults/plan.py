"""Declarative, seedable fault schedules.

A :class:`FaultPlan` is a reproducible description of *what goes wrong
when*: a seed plus an ordered tuple of :class:`FaultSpec` entries, each
naming a fault kind, the tick range it is armed over, the tier/level it
targets and its per-tick firing probability.  The plan is pure data —
JSON round-trippable, hashable into experiment cache keys — and all
randomness is derived from ``(plan.seed, spec_index)``, so two runs of
the same plan over the same records inject byte-identical faults.

Fault kinds (the failure modes of a real perf-counter deployment):

``dropout``
    Individual counters vanish from a tier's metric dict for a tick —
    the multiplexed-counter-set rotation losing attributes.
``corrupt``
    Counter values spike by ``magnitude`` — wraparound glitches and
    misattributed counts.
``stall``
    A tier's collector goes silent *and stays silent* until the
    watchdog re-arms it — a hung sysstat/perfctr reader.  Stateful,
    unlike the per-tick kinds.
``drop_record``
    The whole interval record is lost in transit — no tier sees it.
``duplicate_record``
    The interval record is delivered twice — a retransmitting
    collector; the duplicate is a *late* copy of the same interval.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..telemetry.sampler import HPC_LEVEL

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

FAULT_KINDS = (
    "dropout",
    "corrupt",
    "stall",
    "drop_record",
    "duplicate_record",
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``start``/``end`` bound the ticks the fault is armed over
    (end-exclusive; ``end=None`` means forever).  ``probability`` is the
    per-tick chance the armed fault acts — for ``dropout``/``corrupt``
    it is applied independently per candidate attribute.  ``tier=None``
    targets every tier, ``attributes=()`` every attribute.
    ``magnitude`` is the multiplicative spike of ``corrupt``.
    ``rearmable=False`` makes a ``stall`` permanent — the watchdog's
    re-arm attempts fail, modelling a dead collector host.
    """

    kind: str
    start: int = 0
    end: Optional[int] = None
    tier: Optional[str] = None
    level: str = HPC_LEVEL
    probability: float = 1.0
    attributes: Tuple[str, ...] = ()
    magnitude: float = 10.0
    rearmable: bool = True

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.start < 0:
            raise ValueError("start must be a non-negative tick index")
        if self.end is not None and self.end <= self.start:
            raise ValueError("end must exceed start (end-exclusive)")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")
        # JSON round-trips tuples as lists; normalize for frozen equality
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def active(self, tick: int) -> bool:
        """Is this fault armed at the given delivered-record index?"""
        return tick >= self.start and (self.end is None or tick < self.end)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "tier": self.tier,
            "level": self.level,
            "probability": self.probability,
            "attributes": list(self.attributes),
            "magnitude": self.magnitude,
            "rearmable": self.rearmable,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(
            kind=str(payload["kind"]),
            start=int(payload.get("start", 0)),
            end=None if payload.get("end") is None else int(payload["end"]),
            tier=payload.get("tier"),
            level=str(payload.get("level", HPC_LEVEL)),
            probability=float(payload.get("probability", 1.0)),
            attributes=tuple(payload.get("attributes", ())),
            magnitude=float(payload.get("magnitude", 10.0)),
            rearmable=bool(payload.get("rearmable", True)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered schedule of faults.

    The spec order matters: each spec owns the RNG stream
    ``default_rng([seed, index])`` and record-level faults short-circuit
    in schedule order, so the plan is a complete determinism contract.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def levels(self) -> FrozenSet[str]:
        """The concrete metric levels an injector running this plan reads.

        ``dropout``/``corrupt`` specs draw one random number per
        attribute of their level's tier dict, and a spec without a tier
        enumerates tiers from the ``hpc`` dict.  A live sampler feeding
        the injector synthesizes these levels too, so the fault streams
        stay the same as over a record carrying every level.
        """
        levels: Set[str] = set()
        for spec in self.faults:
            if spec.kind in ("dropout", "corrupt"):
                levels.add(spec.level)
            if spec.tier is None:
                levels.add(HPC_LEVEL)
        return frozenset(levels)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "repro.fault-plan/1",
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if payload.get("format") != "repro.fault-plan/1":
            raise ValueError("payload is not a serialized FaultPlan")
        return cls(
            seed=int(payload["seed"]),
            faults=tuple(
                FaultSpec.from_dict(item) for item in payload["faults"]
            ),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))
