"""perfbench: what an operator of `repro serve` / `repro serve-http` waits for.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing switched on
but a host-speed sampler, and reports their times in reference seconds
(``measure.HostSpeed``); ``--trace 1`` makes one untraced reference pass
and one traced pass of the same work and reports the per-layer ledger
in wall seconds.  Every metric is printed by name with its unit; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check
fails.  DESIGN.md records why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from inputs import BUILD, Prepared, prepare, require_checkout

#: end-to-end metrics: (unit, printed digits)
END_TO_END = {
    "setup_s": "s",
    "site_windows_per_s": "windows/s",
    "decision_lag_p50_ms": "ms",
    "decision_ba": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics of the traced run
PER_LAYER = {
    "simulator.self_s": "s",
    "simulator.events": "count",
    "simulator.share": "ratio",
    "admission.submit_s": "s",
    "admission.requests": "count",
    "admission.admitted_share": "ratio",
    "admission.share": "ratio",
    "sampler.hpc_s": "s",
    "sampler.os_s": "s",
    "sampler.website_s": "s",
    "sampler.records": "count",
    "sampler.used_metric_share": "ratio",
    "sampler.share": "ratio",
    "fold.busy_s": "s",
    "fold.calls": "count",
    "fold.windows": "count",
    "fold.share": "ratio",
    "votes.busy_s": "s",
    "votes.rows": "count",
    "votes.rows_per_window": "ratio",
    "votes.share": "ratio",
    "decide.busy_s": "s",
    "decide.vectorized_share": "ratio",
    "decide.share": "ratio",
    "gate.update_s": "s",
    "gate.share": "ratio",
    "drift.busy_s": "s",
    "drift.calls": "count",
    "drift.share": "ratio",
    "snapshot.busy_s": "s",
    "snapshot.publishes": "count",
    "snapshot.share": "ratio",
    "shard.advance_s": "s",
    "shard.wait_s": "s",
    "shard.merge_s": "s",
    "shard.reply_bytes": "bytes",
    "shard.slices": "count",
    "shard.share": "ratio",
    "gateway.admit_s": "s",
    "http.server_ms_mean": "ms",
    "http.wait_ms_mean": "ms",
    "http.cpu_ms_per_admit": "ms",
    "loadgen.late_tail_ms": "ms",
    "decision_lag_tail_ms": "ms",
    "admit_p50_ms": "ms",
    "admit_tail_ms": "ms",
    "admit_max_rps": "rps",
    "failed_share": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
    "train.meter_s": "s",
}

WORKLOADS = ("serve-live", "fleet-recorded", "fleet-sharded", "http-admit")
#: set-ups per untraced run; the median is setup_s
SETUPS = 5


class Result:
    """What one run measured, and its output checks."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.notes: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record an output check; any failing one fails the run."""
        self.checks.append((name, bool(ok), detail))

    def lines(self) -> List[str]:
        return self.notes + [
            f"# check {'ok  ' if ok else 'FAIL'} {name}{': ' + d if d else ''}"
            for name, ok, d in self.checks
        ]


def _tail_checked(result: Result, name: str, values: List[float]) -> float:
    """The tail of ``values``, printed with its count; fails the run if too few."""
    from measure import tail

    try:
        t = tail(values)
    except ValueError as exc:
        result.check(f"{name} has 10 samples beyond", False, str(exc))
        return float("nan")
    result.notes.append(t.describe(name, "ms"))
    result.check(f"{name} has 10 samples beyond", True)
    return t.value


def _decision_metrics(
    result: Result,
    records: List[Any],
    expected: Optional[int],
    speed: Optional[Any] = None,
) -> None:
    """Lag, BA and the decided/held/degraded checks of one decision stream.

    With ``speed`` each lag is in reference milliseconds, scaled by the
    host's speed over that lag.
    """
    from measure import balanced_accuracy, p50

    clean = sum(1 for r in records if not r[5] and not r[6])
    result.check(
        "no held or degraded decisions", clean == len(records),
        f"{len(records) - clean} of {len(records)}",
    )
    if expected is not None:
        result.check(
            "every expected site-window decided", len(records) == expected,
            f"{len(records)} decided of {expected} expected",
        )
        result.attempted += expected
        result.failed += max(0, expected - clean)
    else:
        result.attempted += len(records)
        result.failed += len(records) - clean
    if speed is None:
        lags = [1000.0 * r[1] for r in records]
    else:
        lags = [1000.0 * r[1] / speed.slowdown(r[0] - r[1], r[0]) for r in records]
    result.metrics["decision_lag_p50_ms"] = p50(lags) if lags else float("nan")
    result.metrics["decision_lag_tail_ms"] = _tail_checked(
        result, "decision_lag_tail_ms", lags
    )
    result.metrics["decision_ba"] = balanced_accuracy(records) if records else float("nan")


# ----------------------------------------------------------------------
# in-process serving workloads
# ----------------------------------------------------------------------
def _timed(
    workload: Any, *, seconds: Optional[float] = None, slices: Optional[int] = None,
    one_session: bool = False,
) -> Tuple[int, float, Tuple[float, float], float]:
    """Step until ``seconds`` of serving (set-up paused out) or ``slices``.

    Returns the slices, the serving seconds, their wall window and the
    peak RSS after the first slice: a fixed amount of work, so the peak
    does not grow with how many slices a fast host gets through.
    """
    paused = 0.0
    count = 0
    rss = 0.0
    started = time.perf_counter()
    while True:
        paused += workload.step()
        count += 1
        if count == 1:
            read = time.perf_counter()
            rss = workload.peak_rss_mb()
            paused += time.perf_counter() - read
        if slices is not None:
            if count >= slices:
                break
        elif time.perf_counter() - started - paused >= seconds:
            break
        if one_session and getattr(workload, "exhausted", lambda: False)():
            break
    ended = time.perf_counter()
    return count, ended - started - paused, (started, ended), rss


@dataclass
class Served:
    """One served workload: its probe, set-up times and timed phase."""

    workload: Any
    probe: Any
    setups: List[float]
    slices: int = 0
    wall: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)
    expected: int = 0
    ticks: int = 0
    peak_rss_mb: float = 0.0


def _serve(
    name: str,
    prepared: Prepared,
    seed: int,
    setups: int,
    speed: Optional[Any] = None,
    **limits: Any,
) -> Served:
    """Set up ``setups`` times, serve the last one, and always close it."""
    from measure import LagProbe
    from serving import WORKLOADS as SERVING

    probe = LagProbe()
    workload = SERVING[name](prepared, seed, probe, speed)
    try:
        if speed is None:
            times = [workload.setup() for _ in range(setups)]
        else:
            times = [speed.set_up(workload.setup) for _ in range(setups)]
        served = Served(workload, probe, times)
        gc.collect()
        served.slices, served.wall, served.window, served.peak_rss_mb = _timed(
            workload, **limits
        )
        served.expected = workload.expected()
        served.ticks = workload.service.ticks
    finally:
        workload.close()
    return served


def serving_untraced(name: str, prepared: Prepared, seed: int, seconds: float) -> Result:
    from measure import HostSpeed, p50

    result = Result()
    speed = HostSpeed()
    served = _serve(name, prepared, seed, SETUPS, speed, seconds=seconds)
    # the serving thread samples into ``speed``; shard workers their own
    timed = speed if name != "fleet-sharded" else served.workload.timed_speed()
    t0, t1 = served.window
    kernel_s = timed.spent(t0, t1)
    slowdown = timed.slowdown(t0, t1)
    reference_s = (served.wall - kernel_s) / slowdown
    decided = len(served.probe.records)
    result.metrics["setup_s"] = p50(served.setups)
    result.metrics["site_windows_per_s"] = decided / reference_s
    result.metrics["peak_rss_mb"] = served.peak_rss_mb
    if name == "fleet-sharded":
        _check_signatures(result, served)
    _decision_metrics(result, served.probe.records, served.expected, timed)
    result.notes.append(
        f"# {decided} site-windows decided in {served.wall:.3f} wall s of "
        f"serving ({decided / served.wall:.4f} windows/s), "
        f"{reference_s:.3f} reference s; host slowdown {slowdown:.4f} from "
        f"{len(timed.samples)} kernel samples ({kernel_s:.3f} s of them); "
        f"set-ups {', '.join(f'{s:.4f}' for s in served.setups)} reference s"
    )
    return result


def _check_signatures(result: Result, served: Served) -> None:
    """fleet-sharded's per-site decisions equal fleet-recorded's (same seed)."""
    from repro.faults.campaign import decision_signature

    kept = served.probe.kept
    reference = served.workload.reference_signatures(served.ticks)
    differ = [
        name for name, signature in reference.items()
        if decision_signature(kept[name]) != signature
    ]
    result.check(
        "fleet-sharded decisions equal fleet-recorded's",
        not differ and all(kept[name] for name in reference),
        f"{len(reference)} sites over {served.ticks} ticks"
        + (f"; differ: {differ}" if differ else ""),
    )


def serving_traced(name: str, prepared: Prepared, seed: int, seconds: float) -> Result:
    from ledger import LEDGER_LAYERS, Tracer, ledger

    result = Result()
    # the untraced reference pass: half the run, within one session
    plain = _serve(name, prepared, seed, 1, seconds=seconds / 2, one_session=True)
    _decision_metrics(result, plain.probe.records, plain.expected)
    lag_tail = result.metrics["decision_lag_tail_ms"]
    # the traced pass: the same seed, the same slices
    tracer = Tracer()
    tracer.install(("shard",) if name == "fleet-sharded" else LEDGER_LAYERS)
    try:
        traced = _serve(name, prepared, seed, 1, slices=plain.slices)
    finally:
        tracer.uninstall()
    _decision_metrics(result, traced.probe.records, traced.expected)
    tracer.dump(BUILD / "traces" / f"{name}.json")
    result.metrics.update(ledger(tracer.spans, traced.window))
    result.metrics["decision_lag_tail_ms"] = lag_tail
    result.metrics["trace.overhead"] = (traced.wall / len(traced.probe.records)) / (
        plain.wall / len(plain.probe.records)
    )
    return result


# ----------------------------------------------------------------------
# http-admit
# ----------------------------------------------------------------------
def http_untraced(prepared: Prepared, seed: int, seconds: float) -> Result:
    from admit import SITES, describe, serve_and_load
    from measure import p50

    result = Result()
    setups, run = serve_and_load(
        prepared, seed, seconds, traced=False, setups=SETUPS, speed=True
    )
    _http_checks(result, run)
    result.metrics["setup_s"] = p50(setups)
    result.metrics["site_windows_per_s"] = run.windows_per_s()
    result.metrics["peak_rss_mb"] = run.peak_rss_mb
    result.notes.extend(describe(run))
    assert run.speed is not None
    result.notes.append(
        f"# {SITES} sites; tick thread {run.windows_per_s(False):.4f} "
        f"windows/s wall; host slowdown {run.speed.slowdown(*run.window):.4f} "
        f"from {len(run.speed.samples)} kernel samples; set-ups "
        f"{', '.join(f'{s:.4f}' for s in setups)} reference s"
    )
    return result


def _http_checks(result: Result, run: Any) -> None:
    first, last = run.rungs[0], run.rungs[-1]
    result.attempted += first.requests
    result.failed += first.failed
    result.check(
        f"no failed requests at {first.rps:g} rps", first.failed == 0,
        f"{first.failed} of {first.requests}",
    )
    result.check(
        "/healthz tick advanced during the last rung",
        last.tick_after > last.tick_before,
        f"{last.tick_before}->{last.tick_after}",
    )
    for rung in run.rungs:
        _tail_checked(result, f"admit latency at {rung.rps:g} rps", rung.latency_ms)
    _decision_metrics(result, run.decisions(), None, run.speed)


def http_traced(prepared: Prepared, seed: int, seconds: float) -> Result:
    from admit import describe, frontend_metrics, serve_and_load, spans_of
    from ledger import ledger

    result = Result()
    _, plain = serve_and_load(prepared, seed, seconds / 2, traced=False, setups=1)
    _http_checks(result, plain)
    lag_tail = result.metrics["decision_lag_tail_ms"]
    result.metrics.update(frontend_metrics(plain))
    result.notes.extend(describe(plain))
    _, traced = serve_and_load(prepared, seed, seconds / 2, traced=True, setups=1)
    _http_checks(result, traced)
    spans, tick_thread = spans_of(traced)
    result.check("tick thread traced", tick_thread is not None)
    result.metrics.update(ledger(spans, traced.window, thread=tick_thread))
    result.metrics["decision_lag_tail_ms"] = lag_tail
    result.metrics["trace.overhead"] = plain.decided_per_s() / traced.decided_per_s()
    return result


# ----------------------------------------------------------------------
def _per_layer(result: Result, prepared: Prepared) -> Dict[str, float]:
    m = result.metrics
    records = m.get("sampler.records", 0.0)
    per_record = m.get("sampler.metrics_per_record", 0.0)
    m["sampler.used_metric_share"] = (
        prepared.used_metrics / per_record if records and per_record else 0.0
    )
    windows = m.get("decide.windows", 0.0)
    m["votes.rows_per_window"] = (
        m.get("votes.rows", 0.0) / (windows * prepared.synopses) if windows else 0.0
    )
    m["failed_share"] = result.failed / result.attempted if result.attempted else 0.0
    m["train.meter_s"] = prepared.seconds
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # derived seeds feed numpy generators, which take non-negative ints
    args.seed %= 2**31
    require_checkout()

    recorded = args.workload in ("fleet-recorded", "fleet-sharded")
    prepared = prepare(need_runs=recorded)
    if args.workload == "http-admit":
        run = http_traced if args.trace else http_untraced
        result = run(prepared, args.seed, args.seconds)
    elif args.trace:
        result = serving_traced(args.workload, prepared, args.seed, args.seconds)
    else:
        result = serving_untraced(args.workload, prepared, args.seed, args.seconds)

    if args.trace:
        from ledger import check_ledger

        metrics = _per_layer(result, prepared)
        result.check(
            "layer self times + unattributed = traced wall",
            *check_ledger(result.metrics),
        )
        units = PER_LAYER
    else:
        metrics = {name: float(result.metrics[name]) for name in END_TO_END}
        units = END_TO_END
    for line in result.lines():
        print(line)
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    # a metric that could not be measured fails the run, and the JSON
    # carries 0 in its place (JSON has no NaN or infinity)
    unmeasured = [name for name, value in metrics.items() if not math.isfinite(value)]
    correct = all(ok for _, ok, _ in result.checks) and not unmeasured
    for name in unmeasured:
        print(f"# FAIL {name} could not be measured")
        metrics[name] = 0.0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
