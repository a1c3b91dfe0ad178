"""Request-level trace recording and replay.

A :class:`TraceRecorder` captures every completed request as a flat
record; traces can be saved to and loaded from JSON-lines files and
replayed against a website as an *open-loop* workload (arrivals at the
recorded instants regardless of response times), which is useful for
reproducible regression runs and for stress tests beyond the closed-loop
saturation point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Union

from ..simulator.engine import Simulator
from ..simulator.website import CompletedRequest, MultiTierWebsite
from .tpcw import INTERACTIONS

__all__ = ["TraceRecord", "TraceRecorder", "save_trace", "load_trace", "TraceReplayer"]


@dataclass(frozen=True)
class TraceRecord:
    """One completed request, flattened for serialization."""

    interaction: str
    submit_time: float
    finish_time: float
    dropped: bool

    @property
    def response_time(self) -> float:
        return self.finish_time - self.submit_time

    @classmethod
    def from_completed(cls, outcome: CompletedRequest) -> "TraceRecord":
        return cls(
            interaction=outcome.request.name,
            submit_time=outcome.submit_time,
            finish_time=outcome.finish_time,
            dropped=outcome.dropped,
        )


class TraceRecorder:
    """Collects :class:`TraceRecord` objects via an RBE observer hook."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def __call__(self, outcome: CompletedRequest) -> None:
        self.records.append(TraceRecord.from_completed(outcome))

    def __len__(self) -> int:
        return len(self.records)

    def throughput(self, t_start: float, t_end: float) -> float:
        """Completed (non-dropped) requests per second in a window."""
        if t_end <= t_start:
            raise ValueError("empty window")
        n = sum(
            1
            for r in self.records
            if not r.dropped and t_start <= r.finish_time < t_end
        )
        return n / (t_end - t_start)


def save_trace(
    records: Iterable[TraceRecord], path: Union[str, Path]
) -> None:
    """Write records as JSON lines."""
    path = Path(path)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record)) + "\n")


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read records written by :func:`save_trace`.

    ``json`` accepts ``NaN`` and ``Infinity``; a record with a
    non-finite time raises :class:`ValueError` naming its line, since a
    replay would schedule it at that time.
    """
    records = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            submit_time = float(data["submit_time"])
            finish_time = float(data["finish_time"])
            if not (math.isfinite(submit_time) and math.isfinite(finish_time)):
                raise ValueError(
                    f"{path}:{lineno}: non-finite time "
                    f"(submit_time={submit_time}, finish_time={finish_time})"
                )
            records.append(
                TraceRecord(
                    interaction=data["interaction"],
                    submit_time=submit_time,
                    finish_time=finish_time,
                    dropped=bool(data["dropped"]),
                )
            )
    return records


class TraceReplayer:
    """Open-loop replay of a recorded trace against a website.

    Each recorded request is re-submitted at its original submit time
    (shifted to the current simulation clock).  Unknown interaction
    names raise immediately rather than silently skipping records.
    """

    def __init__(
        self,
        sim: Simulator,
        website: MultiTierWebsite,
        records: Iterable[TraceRecord],
        *,
        on_complete: Optional[Callable[[CompletedRequest], None]] = None,
        time_scale: float = 1.0,
    ):
        if time_scale <= 0:
            raise ValueError("time scale must be positive")
        self.sim = sim
        self.website = website
        self._on_complete = (
            on_complete if on_complete is not None else (lambda outcome: None)
        )
        self.scheduled = 0
        base = sim.now
        records = list(records)
        if records:
            origin = min(r.submit_time for r in records)
            for record in records:
                if record.interaction not in INTERACTIONS:
                    raise KeyError(
                        f"trace contains unknown interaction {record.interaction!r}"
                    )
                request = INTERACTIONS[record.interaction]
                at = base + (record.submit_time - origin) * time_scale
                sim.schedule_at(
                    at,
                    lambda req=request: website.submit(req, self._on_complete),
                )
                self.scheduled += 1
