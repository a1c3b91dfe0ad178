"""Synthetic hardware performance counters.

The paper reads Pentium 4 (NetBurst) event counters in PerfCtr's
*global* mode — system-wide counts, not per-process — every second.
This module synthesizes the same counter vocabulary from the physical
state the simulator exposes per sampling interval.

The derivations encode the micro-architectural response the learners
exploit:

* **instructions retired** track useful work completed, so they stall
  when throughput droops;
* **cycles** track busy cores, so they saturate at overload;
* their ratio, **IPC**, is the paper's canonical *yield* metric;
* **L2 miss rate** and **stall cycles** rise with cache/buffer-pool
  pressure — the *cost* metrics — because the contention models feed
  straight into them;
* secondary events (branch mispredictions, TLB misses, bus
  transactions) respond to thread churn and memory traffic with their
  own sensitivities and noise, giving the attribute-selection stage a
  realistic haystack to search.

All nonzero counters receive multiplicative log-normal measurement
noise, drawn in one call per interval; the noise scale is configurable
and seeded for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..simulator.server import HardwareSpec, TierSample

__all__ = ["HpcModel", "HPC_METRIC_NAMES"]

#: Canonical metric vocabulary emitted per tier per interval.
HPC_METRIC_NAMES: List[str] = [
    "instructions",
    "cycles",
    "ipc",
    "l1d_misses",
    "l2_references",
    "l2_misses",
    "l2_miss_rate",
    "stall_cycles",
    "stall_fraction",
    "branch_instructions",
    "branch_mispredictions",
    "branch_miss_rate",
    "itlb_misses",
    "dtlb_misses",
    "bus_transactions",
    "memory_bytes",
]


@dataclass(frozen=True)
class _ArchParams:
    """Sensitivities of derived events (roughly NetBurst-flavoured)."""

    l1d_miss_per_instr: float = 0.025
    l2_ref_per_instr: float = 0.022  # L2 references = L1 misses reaching L2
    miss_penalty_cycles: float = 180.0
    base_stall_fraction: float = 0.18
    branch_per_instr: float = 0.17
    base_branch_miss: float = 0.015
    branch_miss_per_runnable: float = 0.0006
    itlb_per_instr: float = 0.0004
    dtlb_per_instr: float = 0.0012
    tlb_churn_per_runnable: float = 0.00004
    cacheline_bytes: float = 64.0


class HpcModel:
    """Maps a :class:`TierSample` to a hardware-counter metric vector."""

    def __init__(
        self,
        spec: HardwareSpec,
        *,
        noise: float = 0.03,
        seed: int = 0,
        arch: _ArchParams = _ArchParams(),
    ):
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.spec = spec
        self.noise = noise
        self.arch = arch
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def observe(self, sample: TierSample) -> Dict[str, float]:
        """Counter metrics for one interval (rates are per-second).

        Count-type metrics are normalized to per-second rates so that
        windows of different lengths are comparable; ratio metrics
        (ipc, miss rates, stall fraction) are dimensionless.
        """
        arch = self.arch
        duration = max(sample.duration, 1e-9)

        # cycles: unhalted clock cycles across all CPUs (global mode)
        busy_cycles = sample.core_busy_time * self.spec.frequency_ghz * 1e9

        # instructions: useful request work + monitoring background work
        work = sample.work_done + sample.background_work
        instructions = work * self.spec.instructions_per_work

        ipc = instructions / busy_cycles if busy_cycles > 0 else 0.0

        l2_refs = instructions * arch.l2_ref_per_instr
        miss_rate = sample.miss_rate_avg
        l2_misses = l2_refs * miss_rate
        l1d = instructions * arch.l1d_miss_per_instr * (1.0 + miss_rate)

        stall = (
            busy_cycles * arch.base_stall_fraction
            + l2_misses * arch.miss_penalty_cycles
        )
        stall = min(stall, busy_cycles * 0.98)
        stall_fraction = stall / busy_cycles if busy_cycles > 0 else 0.0

        branches = instructions * arch.branch_per_instr
        branch_miss_rate = min(
            0.2,
            arch.base_branch_miss
            + arch.branch_miss_per_runnable * sample.runnable_avg,
        )
        branch_misses = branches * branch_miss_rate

        tlb_churn = arch.tlb_churn_per_runnable * sample.runnable_avg
        itlb = instructions * (arch.itlb_per_instr + tlb_churn)
        dtlb = instructions * (arch.dtlb_per_instr + 2.0 * tlb_churn)

        bus = l2_misses * 1.1  # fills + write-backs
        mem_bytes = bus * arch.cacheline_bytes

        raw = {
            "instructions": instructions / duration,
            "cycles": busy_cycles / duration,
            "ipc": ipc,
            "l1d_misses": l1d / duration,
            "l2_references": l2_refs / duration,
            "l2_misses": l2_misses / duration,
            "l2_miss_rate": miss_rate,
            "stall_cycles": stall / duration,
            "stall_fraction": stall_fraction,
            "branch_instructions": branches / duration,
            "branch_mispredictions": branch_misses / duration,
            "branch_miss_rate": branch_miss_rate,
            "itlb_misses": itlb / duration,
            "dtlb_misses": dtlb / duration,
            "bus_transactions": bus / duration,
            "memory_bytes": mem_bytes / duration,
        }
        if self.noise <= 0:
            return raw
        # one vector draw for every nonzero counter, in dict order: the
        # same stream, value for value, as one scalar draw per counter
        noisy = [name for name, value in raw.items() if value != 0.0]
        factors = self._rng.lognormal(0.0, self.noise, size=len(noisy))
        values = np.array([raw[name] for name in noisy], dtype=float)
        raw.update(zip(noisy, (values * factors).tolist()))
        return raw
