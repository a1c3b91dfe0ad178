"""http-admit: ``repro serve-http`` as shipped, driven open loop over HTTP.

The server is the single-process build: its meter ticks on a thread
that shares the interpreter lock with the asyncio front end.  Load comes
from this process on a seeded Poisson TPC-W schedule
(``repro.frontend.loadgen.build_schedule``) in two rungs, 10 rps and
then 80 rps, over at most ``nproc`` keep-alive connections.  Every
request is timed from its scheduled instant, so a stall is charged to
every request it delays; the generator's own lateness (wake-up after
the scheduled instant) is reported beside it.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from inputs import BUILD, CONNECTIONS, ROOT, Prepared
from measure import HostSpeed, Tail, p50, proc_peak_rss_mb, tail, thread_cpu_s

SITES = 2
#: (offered rps, share of --seconds) per rung, in order
RUNGS = ((10.0, 0.6), (80.0, 0.3))
#: the CI latency SLO on /admit's tail
SLO_MS = 50.0
#: stress schedule scale of the served sites: the schedule must outlast
#: the whole load several times over, so the tick thread never idles
SERVE_SCALE = 2.0
#: longest a request may wait for a free connection before it is
#: abandoned unsent, and the safety limit on an answer once sent
CLIENT_TIMEOUT_S = 2.0
ANSWER_TIMEOUT_S = 30.0
#: generator lateness above this share of the SLO flags the run
LATE_FLAG_SHARE = 0.1

HERE = Path(__file__).resolve().parent
#: with two cores or more, the server gets the first and the load
#: generator the second: left to the scheduler, the server's tick
#: thread and front-end thread landed on one core in some runs and on
#: two in others, and the same seed ran at 7.5 or at 12 windows/s
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[0]} if len(_CPUS) > 1 else set(_CPUS)
CLIENT_CPUS = {_CPUS[1]} if len(_CPUS) > 1 else set(_CPUS)
_PORT = re.compile(r"http://127\.0\.0\.1:(\d+)")


class Server:
    """One ``serve-http`` process started through the benchmark launcher."""

    def __init__(self, prepared: Prepared, seed: int, traced: bool, speed: bool):
        self.prepared = prepared
        self.seed = seed
        self.out = BUILD / f"http-admit.{int(traced)}.json"
        self.log = BUILD / f"http-admit.{int(traced)}.log"
        self.traced = traced
        self.speed = speed
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def launch(self) -> float:
        """Start the server; seconds until ``/healthz`` first answers 200."""
        self.out.unlink(missing_ok=True)
        args = [
            sys.executable,
            str(HERE / "launcher.py"),
            str(self.out),
            "1" if self.traced else "0",
            "1" if self.speed else "0",
            "--",
            "serve-http",
            "--meter", str(self.prepared.meter_path),
            "--sites", str(SITES),
            "--mix", "ordering",
            "--scale", str(SERVE_SCALE),
            "--seed", str(1000 * self.seed),
            "--port", "0",
            "--duration", "150",
        ]
        started = time.perf_counter()
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                args, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT
            )
        # before the server starts its tick thread, which inherits this
        os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        self.port = self._wait_port(started)
        while True:
            status, _ = self.get("/healthz")
            if status == 200:
                return time.perf_counter() - started
            self._alive(started)
            time.sleep(0.005)

    def _alive(self, started: float) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"serve-http exited ({self.proc.returncode}): "
                f"{self.log.read_text(encoding='utf-8')[-2000:]}"
            )
        if time.perf_counter() - started > 60.0:
            raise RuntimeError("serve-http did not become healthy in 60 s")

    def _wait_port(self, started: float) -> int:
        while True:
            match = _PORT.search(self.log.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            self._alive(started)
            time.sleep(0.005)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def healthz_tick(self) -> int:
        status, body = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return int(json.loads(body)["tick"])

    def admit_histogram(self) -> Tuple[float, int]:
        """(seconds, requests) of ``POST /admit`` handler time so far."""
        _, body = self.get("/metrics")
        total, count = 0.0, 0
        for line in body.decode("utf-8").splitlines():
            if 'route="POST /admit"' not in line:
                continue
            if line.startswith("repro_http_request_seconds_sum{"):
                total += float(line.rsplit(" ", 1)[1])
            elif line.startswith("repro_http_request_seconds_count{"):
                count += int(line.rsplit(" ", 1)[1])
        return total, count

    def front_cpu_s(self) -> float:
        """CPU seconds of the server's main (asyncio front-end) thread."""
        assert self.proc is not None
        return thread_cpu_s(self.proc.pid, self.proc.pid)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return proc_peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        """Discard a server started only to time its set-up."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self.proc = None

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (graceful drain) and the launcher's report."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise RuntimeError("serve-http ignored SIGTERM for 60 s")
        finally:
            self.proc = None
        return json.loads(self.out.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# open-loop load
# ----------------------------------------------------------------------
@dataclass
class Rung:
    rps: float
    seconds: float
    #: latency in ms from each request's scheduled instant (inf = failed)
    latency_ms: List[float] = field(default_factory=list)
    #: generator lateness: wake-up after the scheduled instant, ms
    late_ms: List[float] = field(default_factory=list)
    failed: int = 0
    started: float = 0.0
    wall_s: float = 0.0
    tick_before: int = 0
    tick_after: int = 0
    server_s: float = 0.0
    server_requests: int = 0
    front_cpu_s: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.latency_ms)

    def latency_tail(self) -> Tail:
        return tail(self.latency_ms)

    def backlog_growing(self) -> bool:
        """Latency of the last fifth well above that of the first fifth."""
        fifth = max(1, self.requests // 5)
        first = p50(self.latency_ms[:fifth])
        last = p50(self.latency_ms[-fifth:])
        return last > max(2.0 * first, SLO_MS)

    def qualifies(self) -> bool:
        return (
            self.failed == 0
            and self.latency_tail().value <= SLO_MS
            and not self.backlog_growing()
        )


async def _request(
    conn: Tuple[asyncio.StreamReader, asyncio.StreamWriter], body: bytes
) -> Tuple[int, bool]:
    reader, writer = conn
    writer.write(
        b"POST /admit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
        + body
    )
    await writer.drain()
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ")[1])
    length, keep = 0, True
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
        elif name.strip().lower() == "connection":
            keep = value.strip().lower() != "close"
    await reader.readexactly(length)
    return status, keep


async def _drive(port: int, rung: Rung, schedule: List[Any]) -> None:
    pool: "asyncio.Queue[Optional[Tuple[Any, Any]]]" = asyncio.Queue()
    for _ in range(CONNECTIONS):
        pool.put_nowait(None)
    latency: List[float] = [0.0] * len(schedule)
    late: List[float] = [0.0] * len(schedule)
    origin = time.perf_counter() + 0.05

    async def fire(i: int, planned: Any) -> None:
        due = origin + planned.at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late[i] = (time.perf_counter() - due) * 1000.0
        body = json.dumps(
            {
                "site": planned.site,
                "class": planned.request_class,
                "interaction": planned.interaction,
            }
        ).encode("utf-8")
        # a request still waiting for a free connection two seconds after
        # its scheduled instant is abandoned unsent and counts as failed;
        # a sent request is never abandoned, so the server is never left
        # answering requests nobody waits for
        try:
            conn = await asyncio.wait_for(
                pool.get(), max(0.0, due + CLIENT_TIMEOUT_S - time.perf_counter())
            )
        except asyncio.TimeoutError:
            latency[i] = float("inf")
            return
        ok = False
        try:
            if conn is None:
                conn = await asyncio.open_connection("127.0.0.1", port)
            status, keep = await asyncio.wait_for(
                _request(conn, body), ANSWER_TIMEOUT_S
            )
            ok = status == 200
            if not keep:
                conn[1].close()
                conn = None
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            if conn is not None:
                conn[1].close()
            conn = None
        finally:
            pool.put_nowait(conn)
        latency[i] = (time.perf_counter() - due) * 1000.0 if ok else float("inf")

    tasks = [asyncio.ensure_future(fire(i, p)) for i, p in enumerate(schedule)]
    try:
        await asyncio.gather(*tasks)
    finally:
        while not pool.empty():
            conn = pool.get_nowait()
            if conn is not None:
                conn[1].close()
    rung.latency_ms = latency
    rung.late_ms = late
    rung.failed = sum(1 for value in latency if value == float("inf"))


def run_rung(server: Server, rps: float, seconds: float, seed: int) -> Rung:
    """One open-loop rung with ``/metrics``, ``/healthz`` and CPU read around it."""
    from repro.frontend.loadgen import build_schedule, resolve_loadgen_mix

    schedule = build_schedule(
        rps=rps,
        duration=seconds,
        mix=resolve_loadgen_mix("tpcw"),
        sites=[f"site{i}" for i in range(SITES)],
        seed=seed,
    )
    rung = Rung(rps=rps, seconds=seconds)
    server_s, server_n = server.admit_histogram()
    cpu = server.front_cpu_s()
    rung.tick_before = server.healthz_tick()
    rung.started = time.perf_counter()
    asyncio.run(_drive(server.port, rung, schedule))
    rung.wall_s = time.perf_counter() - rung.started
    rung.tick_after = server.healthz_tick()
    after_s, after_n = server.admit_histogram()
    rung.server_s = after_s - server_s
    rung.server_requests = after_n - server_n
    rung.front_cpu_s = server.front_cpu_s() - cpu
    return rung


@dataclass
class HttpRun:
    rungs: List[Rung]
    window: Tuple[float, float]
    report: Dict[str, Any]
    peak_rss_mb: float
    #: the tick thread's host-speed samples, when it took them
    speed: Optional[HostSpeed] = None

    def decisions(self) -> List[Any]:
        t0, t1 = self.window
        return [r for r in self.report["decisions"] if t0 <= r[0] <= t1]

    def windows_per_s(self, reference: bool = True) -> float:
        """Tick-thread progress during the first rung, in site-windows/s.

        Decisions arrive in one group per window-completing tick; the
        rate runs from the first group inside the rung to the last, so
        it carries no edge quantization.  With ``speed`` and
        ``reference`` the seconds are reference seconds, without the
        tick thread's kernel runs.
        """
        first = self.rungs[0]
        arrivals = sorted(
            r[0] for r in self.report["decisions"]
            if first.started <= r[0] <= first.started + first.wall_s
        )
        if len(arrivals) <= SITES:
            return float("nan")  # the tick thread stalled: fails the run
        t0, t1 = arrivals[0], arrivals[-1]
        seconds = t1 - t0
        if reference and self.speed is not None:
            seconds -= self.speed.spent(t0, t1)
            seconds /= self.speed.slowdown(t0, t1)
        return (len(arrivals) - SITES) / seconds

    def decided_per_s(self) -> float:
        """Decisions per second over the whole load (trace overhead base)."""
        t0, t1 = self.window
        return len(self.decisions()) / (t1 - t0)


def serve_and_load(
    prepared: Prepared,
    seed: int,
    seconds: float,
    *,
    traced: bool,
    setups: int,
    speed: bool = False,
) -> Tuple[List[float], HttpRun]:
    """``setups`` timed launches; the last one serves both rungs.

    With ``speed`` the set-ups are in reference seconds (the host's speed
    sampled on this process's core around each) and the server's tick
    thread samples the host's speed around every tick.
    """
    os.sched_setaffinity(0, CLIENT_CPUS)
    host = HostSpeed() if speed else None
    times: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(setups):
            if server is not None:
                server.kill()
            server = Server(prepared, seed, traced, speed)
            launch = server.launch
            times.append(launch() if host is None else host.set_up(launch))
        assert server is not None
        rungs = []
        t0 = time.perf_counter()
        for index, (rps, share) in enumerate(RUNGS):
            rungs.append(run_rung(server, rps, share * seconds, 10 * seed + index))
        t1 = time.perf_counter()
        rss = server.peak_rss_mb()
        report = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    if report["status"] != 0:
        raise RuntimeError(f"serve-http exited with status {report['status']}")
    run = HttpRun(rungs, (t0, t1), report, rss)
    if speed:
        run.speed = HostSpeed()
        run.speed.extend(report["speed"])
    return times, run


def frontend_metrics(run: HttpRun) -> Dict[str, float]:
    """The front end's numbers, from the rungs and the server's scrapes."""
    first = run.rungs[0]
    client_ok = [v for v in first.latency_ms if v != float("inf")]
    server_ms = 1000.0 * first.server_s / max(1, first.server_requests)
    qualified = [r.rps for r in run.rungs if r.qualifies()]
    late = [v for r in run.rungs for v in r.late_ms]
    return {
        "admit_p50_ms": p50(first.latency_ms),
        "admit_tail_ms": first.latency_tail().value,
        "admit_max_rps": max(qualified) if qualified else 0.0,
        "http.server_ms_mean": server_ms,
        "http.wait_ms_mean": sum(client_ok) / max(1, len(client_ok)) - server_ms,
        "http.cpu_ms_per_admit": 1000.0 * first.front_cpu_s / max(1, first.requests),
        "loadgen.late_tail_ms": tail(late).value,
    }


def describe(run: HttpRun) -> List[str]:
    lines = []
    for rung in run.rungs:
        t = rung.latency_tail()
        lines.append(
            f"# rung {rung.rps:g} rps: {rung.requests} requests, "
            f"{rung.failed} failed, p50 {p50(rung.latency_ms):.3f} ms, "
            f"tail {t.value:.3f} ms at p{t.percentile:.2f} of {t.samples} "
            f"({t.beyond} beyond), backlog "
            f"{'growing' if rung.backlog_growing() else 'steady'}, "
            f"healthz tick {rung.tick_before}->{rung.tick_after}, "
            f"{'meets' if rung.qualifies() else 'misses'} the {SLO_MS:g} ms SLO"
        )
    late = tail([v for r in run.rungs for v in r.late_ms])
    if late.value > LATE_FLAG_SHARE * SLO_MS:
        lines.append(
            f"# FLAG: the generator fell behind (lateness tail "
            f"{late.value:.3f} ms > {LATE_FLAG_SHARE * SLO_MS:g} ms): "
            f"latencies include the load generator's own delay"
        )
    return lines


def spans_of(run: HttpRun) -> Tuple[List[Any], Optional[int]]:
    """The traced server's spans and its tick thread (None if untraced)."""
    path = run.report.get("spans")
    if not path:
        return [], None
    spans = json.loads(Path(path).read_text(encoding="utf-8"))["spans"]
    main = run.report["main_thread"]
    ticks = [s[5] for s in spans if s[5] != main]
    return spans, (max(set(ticks), key=ticks.count) if ticks else None)
