"""Run ``repro serve-http`` in this process with the benchmark's probes.

Usage (from the checkout root)::

    python3 perfbench/launcher.py OUT.json TRACE SPEED -- serve-http ARGS...

Before calling ``repro.cli.main`` it wraps ``CapacityService.attach`` so
the served service gets the benchmark's decision-lag probe: a tick
timer registered ahead of the samplers and an ``on_decision`` hook.
With ``TRACE`` = 1 it also installs the layer wrappers of
``ledger.Tracer``; with ``SPEED`` = 1 the tick thread samples the host's
speed around every tick (``measure.HostSpeed``).  When the server exits it
writes the probe's decisions, the speed samples and the path of its
spans to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from typing import Any, List

from inputs import require_checkout


def main(argv: List[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        raise SystemExit(__doc__)
    out = Path(argv[0])
    traced = argv[1] == "1"
    require_checkout()

    from ledger import LEDGER_LAYERS, Tracer
    from measure import HostSpeed, LagProbe
    from repro import cli
    from repro.control.service import CapacityService

    probe = LagProbe()
    speed = HostSpeed() if argv[2] == "1" else None
    attach = CapacityService.attach

    def probed_attach(
        service: Any, sim: Any, websites: Any, **kwargs: Any
    ) -> None:
        interval = kwargs.get("interval", 1.0)
        sim.every(interval, probe.mark)
        service.on_decision = probe.on_decision
        attach(service, sim, websites, **kwargs)
        if speed is not None:
            speed.bracket(sim, interval)

    CapacityService.attach = probed_attach  # type: ignore[method-assign]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install((*LEDGER_LAYERS, "frontend"))
    status = 1
    try:
        status = cli.main(argv[4:])
    finally:
        doc = {
            "status": status,
            "decisions": probe.records,
            "speed": speed.samples if speed is not None else [],
            "main_thread": threading.main_thread().ident,
            "spans": None,
        }
        if tracer is not None:
            spans = out.parent / "traces" / "http-admit.json"
            tracer.dump(spans)
            doc["spans"] = str(spans)
        partial = out.with_suffix(".partial")
        partial.write_text(json.dumps(doc), encoding="utf-8")
        partial.replace(out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
