"""The traced run: spans around each layer's public entry points.

The tracer replaces each entry point below, on its class, with a
wrapper that records one span — entry point, start, end, parent span,
thread and a count — in memory.  Nothing in the program is switched on
for it: ``repro.obs`` stays as the workload ships it, because enabling
it moves ``CapacityService`` off the ``FleetState`` path and the trace
would measure a different program.

A layer's self time is its spans' time minus the part their child spans
cover, so the layers' self times plus the unattributed rest add up to
the traced wall time exactly; the unattributed share says how much of
the wall no wrapped layer claimed.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# ----------------------------------------------------------------------
# what is traced
# ----------------------------------------------------------------------
def _one(args: Tuple[Any, ...], result: Any) -> float:
    return 1.0


def _is_true(args: Tuple[Any, ...], result: Any) -> float:
    return 1.0 if result else 0.0


def _not_none(args: Tuple[Any, ...], result: Any) -> float:
    return 0.0 if result is None else 1.0


def _result_len(args: Tuple[Any, ...], result: Any) -> float:
    return float(len(result))


def _first_arg_len(args: Tuple[Any, ...], result: Any) -> float:
    return float(len(args[1]))


#: (layer, module, class, method, count hook).  The layer names are the
#: repo's modules; DESIGN.md says which end-to-end metric each moves.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Callable[..., float]], ...] = (
    ("simulator", "repro.simulator.engine", "Simulator", "run", _one),
    ("simulator", "repro.simulator.engine", "Simulator", "schedule_at", _one),
    ("simulator", "repro.simulator.website", "MultiTierWebsite", "submit", _one),
    ("admission", "repro.control.admission", "GatedFrontEnd", "submit", _one),
    ("admission", "repro.control.admission", "AimdGate", "admit", _is_true),
    ("sampler", "repro.simulator.website", "MultiTierWebsite", "sample", _one),
    ("sampler", "inputs", "RecordedWebsite", "sample", _one),
    ("sampler", "repro.telemetry.hpc", "HpcModel", "observe", _result_len),
    ("sampler", "repro.telemetry.osmetrics", "OsMetricsModel", "observe", _result_len),
    ("fold", "repro.control.service", "SiteRuntime", "offer", _one),
    ("fold", "repro.core.monitor", "OnlineCapacityMonitor", "fold", _not_none),
    ("votes", "repro.core.synopsis", "PerformanceSynopsis", "predict_batch", _first_arg_len),
    ("decide", "repro.control.fleet", "FleetState", "decide_clean", _first_arg_len),
    ("decide", "repro.core.monitor", "OnlineCapacityMonitor", "decide", _one),
    ("gate", "repro.control.admission", "AimdGate", "update_many", _one),
    ("gate", "repro.control.admission", "AimdGate", "update", _one),
    ("drift", "repro.drift.detector", "DriftDetector", "observe", _one),
    ("snapshot", "repro.control.snapshot", "SnapshotPublisher", "update", _one),
    ("snapshot", "repro.control.snapshot", "SnapshotPublisher", "publish", _one),
    ("shard", "repro.control.shard", "ShardedCapacityService", "advance", _one),
    ("shard", "repro.parallel.pool", "WorkerPool", "result_bytes", _result_len),
    ("frontend", "repro.frontend.gateway", "AdmitGateway", "admit", _one),
)

#: the layers the ledger sums, in report order
LEDGER_LAYERS = (
    "simulator",
    "admission",
    "sampler",
    "fold",
    "votes",
    "decide",
    "gate",
    "drift",
    "snapshot",
    "shard",
)

#: (span id, entry index, start, end, parent span id, thread id, count)
Span = Tuple[int, int, float, float, int, int, float]


class Tracer:
    """In-memory span recorder installed over class entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[type, str, Any]] = []

    def install(self, layers: Iterable[str]) -> None:
        """Wrap the entry points of ``layers`` (call before set-up)."""
        wanted = set(layers)
        for index, (layer, module, cls_name, method, hook) in enumerate(
            ENTRY_POINTS
        ):
            if layer not in wanted:
                continue
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._installed.append((cls, method, original))
            wrapped = self._wrap(index, original, hook)
            if isinstance(original, staticmethod):
                setattr(cls, method, staticmethod(wrapped))
            else:
                setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    def _wrap(
        self, index: int, original: Any, hook: Callable[..., float]
    ) -> Callable[..., Any]:
        fn = original.__func__ if isinstance(original, staticmethod) else original
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, index, start, clock(), parent, ident(), 0.0))
                raise
            finally:
                stack.pop()
            spans.append(
                (span_id, index, start, clock(), parent, ident(), hook(args, result))
            )
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans out (one JSON document, entry names included)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [f"{e[0]}:{e[2]}.{e[3]}" for e in ENTRY_POINTS]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"entry_points": names, "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def ledger(
    spans: Iterable[Span],
    window: Tuple[float, float],
    *,
    thread: Optional[int] = None,
) -> Dict[str, float]:
    """Per-layer metrics of the spans inside ``window`` on one thread.

    Span times are clipped to the window; counts take spans that start
    inside it.  ``thread=None`` keeps every thread (single-threaded
    workloads); a threaded server passes its tick thread, and of the
    other threads' spans only the front end's time is kept, as
    ``gateway.admit_s``.
    """
    t0, t1 = window
    wall = t1 - t0
    clipped: Dict[int, float] = {}
    children: Dict[int, float] = defaultdict(float)
    kept: List[Span] = []
    other_s: Dict[int, float] = defaultdict(float)
    for span in spans:
        span_id, index, start, end, parent, tid, _ = span
        duration = max(0.0, min(end, t1) - max(start, t0))
        if thread is not None and tid != thread:
            other_s[index] += duration
            continue
        clipped[span_id] = duration
        if parent >= 0:
            children[parent] += duration
        kept.append(span)
    self_s: Dict[str, float] = defaultdict(float)
    entry_s: Dict[int, float] = defaultdict(float)
    entry_total: Dict[int, float] = defaultdict(float)
    calls: Dict[int, int] = defaultdict(int)
    value: Dict[int, float] = defaultdict(float)
    for span_id, index, start, end, parent, tid, count in kept:
        own = clipped[span_id] - children.get(span_id, 0.0)
        self_s[ENTRY_POINTS[index][0]] += own
        entry_s[index] += own
        entry_total[index] += clipped[span_id]
        if t0 <= start < t1:
            calls[index] += 1
            value[index] += count

    def entry(cls_name: str, method: str) -> int:
        for i, e in enumerate(ENTRY_POINTS):
            if e[2] == cls_name and e[3] == method:
                return i
        raise KeyError(f"{cls_name}.{method}")

    attributed = sum(self_s[layer] for layer in LEDGER_LAYERS)
    out: Dict[str, float] = {"trace.wall_s": wall}
    for layer in LEDGER_LAYERS:
        out[f"{layer}.share"] = self_s[layer] / wall if wall > 0 else 0.0
    out["trace.unattributed_share"] = (wall - attributed) / wall if wall else 0.0

    out["simulator.self_s"] = self_s["simulator"]
    out["simulator.events"] = float(calls[entry("Simulator", "schedule_at")])

    out["admission.submit_s"] = self_s["admission"]
    out["admission.requests"] = float(calls[entry("GatedFrontEnd", "submit")])
    admits = calls[entry("AimdGate", "admit")]
    out["admission.admitted_share"] = (
        value[entry("AimdGate", "admit")] / admits if admits else 0.0
    )

    records = calls[entry("MultiTierWebsite", "sample")] + calls[
        entry("RecordedWebsite", "sample")
    ]
    out["sampler.hpc_s"] = entry_s[entry("HpcModel", "observe")]
    out["sampler.os_s"] = entry_s[entry("OsMetricsModel", "observe")]
    out["sampler.website_s"] = (
        entry_s[entry("MultiTierWebsite", "sample")]
        + entry_s[entry("RecordedWebsite", "sample")]
    )
    out["sampler.records"] = float(records)
    synthesized = value[entry("HpcModel", "observe")] + value[
        entry("OsMetricsModel", "observe")
    ]
    out["sampler.metrics_per_record"] = synthesized / records if records else 0.0

    out["fold.busy_s"] = self_s["fold"]
    out["fold.calls"] = float(calls[entry("OnlineCapacityMonitor", "fold")])
    out["fold.windows"] = value[entry("OnlineCapacityMonitor", "fold")]

    out["votes.busy_s"] = self_s["votes"]
    out["votes.rows"] = value[entry("PerformanceSynopsis", "predict_batch")]

    vectorized = value[entry("FleetState", "decide_clean")]
    per_site = float(calls[entry("OnlineCapacityMonitor", "decide")])
    out["decide.busy_s"] = self_s["decide"]
    out["decide.windows"] = vectorized + per_site
    out["decide.vectorized_share"] = (
        vectorized / (vectorized + per_site) if vectorized + per_site else 0.0
    )

    out["gate.update_s"] = self_s["gate"]
    out["drift.busy_s"] = self_s["drift"]
    out["drift.calls"] = float(calls[entry("DriftDetector", "observe")])
    out["snapshot.busy_s"] = self_s["snapshot"]
    out["snapshot.publishes"] = float(calls[entry("SnapshotPublisher", "publish")])

    advance = entry_total[entry("ShardedCapacityService", "advance")]
    wait = entry_total[entry("WorkerPool", "result_bytes")]
    out["shard.advance_s"] = advance
    out["shard.wait_s"] = wait
    out["shard.merge_s"] = advance - wait
    out["shard.reply_bytes"] = value[entry("WorkerPool", "result_bytes")]
    out["shard.slices"] = float(calls[entry("ShardedCapacityService", "advance")])

    gateway = entry("AdmitGateway", "admit")
    out["gateway.admit_s"] = entry_total[gateway] + other_s[gateway]
    return out


def check_ledger(metrics: Dict[str, float]) -> Tuple[bool, str]:
    """Do the layer shares and the unattributed share make up the wall?

    The unattributed rest must not be negative: a negative rest would
    mean spans counted twice, so the shares would not be a partition.
    """
    total = sum(metrics[f"{layer}.share"] for layer in LEDGER_LAYERS)
    rest = metrics["trace.unattributed_share"]
    ok = abs(total + rest - 1.0) < 1e-9 and rest >= 0.0
    return ok, f"layers {total:.6f} + unattributed {rest:.6f}"
