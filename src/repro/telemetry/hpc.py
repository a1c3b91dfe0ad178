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

:class:`HpcBlock` derives the same counters for many models at once,
one row per model, from the sample fields gathered into one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..simulator.server import HardwareSpec, TierSample

__all__ = ["HpcBlock", "HpcModel", "HPC_METRIC_NAMES", "OBSERVED_FIELDS"]

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

#: the :class:`TierSample` fields :meth:`HpcModel.observe` reads, in the
#: column order :meth:`HpcBlock.observe` takes them
OBSERVED_FIELDS: Tuple[str, ...] = (
    "t_start",
    "t_end",
    "core_busy_time",
    "work_done",
    "background_work",
    "miss_rate_avg",
    "runnable_avg",
)

#: the columns of HPC_METRIC_NAMES that are per-second rates; the rest
#: (ipc, l2_miss_rate, stall_fraction, branch_miss_rate) are ratios
_RATE_COLUMNS = [0, 1, 3, 4, 5, 7, 9, 10, 12, 13, 14, 15]


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


class HpcBlock:
    """:meth:`HpcModel.observe` of many models in one array pass.

    Row ``p`` of :meth:`observe` holds, bit for bit, what
    ``models[p].observe(sample)`` returns for the sample whose
    :data:`OBSERVED_FIELDS` are row ``p`` of the input, in
    :data:`HPC_METRIC_NAMES` order, and leaves model ``p``'s generator
    where that call leaves it.  Every counter is derived with
    ``observe``'s own IEEE operations in the same order, elementwise:

    * ``max(d, 1e-9)`` and ``min(a, b)`` keep Python's rule — the first
      argument unless the second compares greater (smaller) — written
      as ``np.where``; ``np.maximum`` and ``np.minimum`` would propagate
      NaN and pick the other signed zero;
    * ``x / c if c > 0 else 0.0`` divides only where ``c > 0``;
    * each model draws its own noise: one ``lognormal`` call per row,
      one factor per nonzero counter in name order, none at noise 0.

    The models must share one set of architecture parameters.
    """

    def __init__(self, models: Sequence[HpcModel]) -> None:
        if not models:
            raise ValueError("HpcBlock needs at least one model")
        self.arch = models[0].arch
        if any(model.arch != self.arch for model in models):
            raise ValueError("HpcBlock models must share architecture parameters")
        self.models = list(models)
        self._frequency = np.array(
            [model.spec.frequency_ghz for model in models], dtype=float
        )
        self._instructions_per_work = np.array(
            [model.spec.instructions_per_work for model in models], dtype=float
        )
        # observe() returns the raw counters when `noise <= 0`
        noisy = [not model.noise <= 0 for model in models]
        #: (row, draw, scale) of every model that adds noise
        self._draws = [
            (row, model._rng.lognormal, model.noise)
            for row, model in enumerate(models)
            if noisy[row]
        ]
        self._quiet = None if all(noisy) else ~np.array(noisy)

    def observe(self, fields: np.ndarray) -> np.ndarray:
        """``(models, 16)`` counters from ``(models, 7)`` sample fields."""
        arch = self.arch
        t_start, t_end, busy_time, work_done, background, miss_rate, runnable = (
            fields.T
        )
        rows = len(fields)
        # Python float arithmetic never warns; neither does this
        with np.errstate(all="ignore"):
            span = t_end - t_start
            duration = np.where(1e-9 > span, 1e-9, span)
            busy_cycles = busy_time * self._frequency * 1e9
            instructions = (work_done + background) * self._instructions_per_work
            busy = busy_cycles > 0
            ipc = np.divide(
                instructions, busy_cycles, out=np.zeros(rows), where=busy
            )
            l2_refs = instructions * arch.l2_ref_per_instr
            l2_misses = l2_refs * miss_rate
            l1d = instructions * arch.l1d_miss_per_instr * (1.0 + miss_rate)
            stall = (
                busy_cycles * arch.base_stall_fraction
                + l2_misses * arch.miss_penalty_cycles
            )
            ceiling = busy_cycles * 0.98
            stall = np.where(ceiling < stall, ceiling, stall)
            stall_fraction = np.divide(
                stall, busy_cycles, out=np.zeros(rows), where=busy
            )
            branches = instructions * arch.branch_per_instr
            branch_rate = (
                arch.base_branch_miss + arch.branch_miss_per_runnable * runnable
            )
            branch_miss_rate = np.where(branch_rate < 0.2, branch_rate, 0.2)
            branch_misses = branches * branch_miss_rate
            tlb_churn = arch.tlb_churn_per_runnable * runnable
            itlb = instructions * (arch.itlb_per_instr + tlb_churn)
            dtlb = instructions * (arch.dtlb_per_instr + 2.0 * tlb_churn)
            bus = l2_misses * 1.1
            mem_bytes = bus * arch.cacheline_bytes
            out = np.empty((rows, len(HPC_METRIC_NAMES)))
            out[:, _RATE_COLUMNS] = (
                np.stack(
                    (
                        instructions,
                        busy_cycles,
                        l1d,
                        l2_refs,
                        l2_misses,
                        stall,
                        branches,
                        branch_misses,
                        itlb,
                        dtlb,
                        bus,
                        mem_bytes,
                    ),
                    axis=1,
                )
                / duration[:, None]
            )
            out[:, 2] = ipc
            out[:, 6] = miss_rate
            out[:, 8] = stall_fraction
            out[:, 11] = branch_miss_rate
            if self._draws:
                noisy = out != 0.0
                if self._quiet is not None:
                    noisy[self._quiet] = False
                sizes = noisy.sum(axis=1).tolist()
                # row-major mask order: row by row, names in order
                out[noisy] *= np.concatenate(
                    [draw(0.0, scale, sizes[row]) for row, draw, scale in self._draws]
                )
        return out
