"""Ground-truth kernel timing model.

This module computes how long a kernel launch takes at each hardware
configuration of a :class:`~repro.hardware.table.ConfigTable`.  It
stands in for the paper's physical measurements of
336 (kernel, configuration) points on the AMD A10-7850K, using a
roofline-style model that reproduces the four scaling behaviours of the
paper's Figure 2:

* compute time scales with active CUs (Amdahl-limited) and GPU clock;
* memory time scales with achievable DRAM bandwidth, which the NB state
  caps (NB0-NB2 share the same 800 MHz bus, NB3 drops to 333 MHz) and
  which a small GPU configuration may be unable to saturate;
* "peak" kernels generate *extra* memory traffic when too many CUs
  thrash the shared cache, so their throughput peaks mid-axis;
* unscalable kernels carry a fixed serial term no knob can shrink.

All times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.hardware.table import ConfigTable

if TYPE_CHECKING:  # imported lazily to avoid a hardware <-> workloads cycle
    from repro.workloads.kernel import KernelSpec

__all__ = ["KernelTimingMatrix", "TimingModel"]

#: Vector lanes per GPU compute unit (GCN-style SIMD width).
LANES_PER_CU = 64

#: GB/s of memory demand one CU can generate per GHz of GPU clock.
#: Memory-level parallelism is limited per CU, so small or slow GPU
#: configurations cannot saturate the DRAM bus: at [8 CU, DPM4] the cap
#: (6 * 8 * 0.72 = 34.6 GB/s) clears the 25.6 GB/s bus, but half the
#: CUs (or DPM0) leave bandwidth on the table.  Calibrated against the
#: paper's Figure 2(b), where the memory-bound kernel speeds up ~2.4x
#: from 2 to 8 CUs at NB0 before saturating.
BW_DEMAND_PER_CU_GHZ = 6.0


@dataclass(frozen=True)
class KernelTimingMatrix:
    """Timing breakdown of one kernel over many configurations.

    Every field but ``serial_time_s`` is a float64 array indexed like
    the source :class:`ConfigTable` rows.

    Attributes:
        compute_time_s: Time the compute pipeline needs, in isolation.
        memory_time_s: Time the memory system needs, in isolation.
        serial_time_s: Fixed serial/launch time (one float).
        total_time_s: Wall-clock kernel time (serial + max of the two
            overlapped components).
        achieved_bandwidth_gbps: DRAM bandwidth actually consumed.
        effective_memory_traffic_gb: Memory traffic after shared-cache
            interference inflation.
    """

    compute_time_s: np.ndarray
    memory_time_s: np.ndarray
    serial_time_s: float
    total_time_s: np.ndarray
    achieved_bandwidth_gbps: np.ndarray
    effective_memory_traffic_gb: np.ndarray

    @property
    def compute_utilization(self) -> np.ndarray:
        """Fraction of the overlapped window the compute pipeline is busy."""
        window = self.total_time_s - self.serial_time_s
        util = np.zeros_like(window)
        np.divide(self.compute_time_s, window, out=util, where=window > 0)
        return np.minimum(1.0, util)


class TimingModel:
    """Roofline-style ground-truth timing for kernels on the APU.

    Args:
        lanes_per_cu: SIMD lanes per compute unit.
        bw_demand_per_cu_ghz: Memory request-rate cap per CU per GHz.
    """

    def __init__(
        self,
        lanes_per_cu: int = LANES_PER_CU,
        bw_demand_per_cu_ghz: float = BW_DEMAND_PER_CU_GHZ,
    ) -> None:
        if lanes_per_cu <= 0:
            raise ValueError("lanes_per_cu must be positive")
        if bw_demand_per_cu_ghz <= 0:
            raise ValueError("bw_demand_per_cu_ghz must be positive")
        self.lanes_per_cu = lanes_per_cu
        self.bw_demand_per_cu_ghz = bw_demand_per_cu_ghz

    def kernel_timing_matrix(
        self, spec: KernelSpec, table: ConfigTable,
        indices: Optional[np.ndarray] = None,
    ) -> KernelTimingMatrix:
        """Timing breakdowns for one kernel over many configurations.

        The only timing model: every launch, counter synthesis and
        training row reads a row of it.  Each row depends on that row's
        configuration alone (elementwise float64), so a one-row
        evaluation equals the same row of a whole-table one, float for
        float.

        Args:
            spec: The kernel.
            table: Columnar configuration set.
            indices: Optional flat row indices; all rows when ``None``.
        """
        if indices is None:
            f_gpu = table.gpu_freq_ghz
            cu = table.cu_count
            bus = table.memory_bw_gbps
        else:
            f_gpu = table.gpu_freq_ghz[indices]
            cu = table.cu_count[indices]
            bus = table.memory_bw_gbps[indices]

        p = spec.parallel_fraction
        speedup = 1.0 / ((1.0 - p) + p / cu)
        lane_rate = (
            self.lanes_per_cu * f_gpu * spec.compute_efficiency * speedup
        )

        if spec.compute_work:
            compute_time = spec.compute_work / lane_rate
        else:
            compute_time = np.zeros_like(lane_rate)

        extra_cus = np.maximum(0, cu - spec.cache_sweet_spot_cu)
        traffic = spec.memory_traffic * (1.0 + spec.cache_interference * extra_cus)
        bandwidth = np.minimum(bus, self.bw_demand_per_cu_ghz * cu * f_gpu)
        memory_time = np.zeros_like(traffic)
        np.divide(traffic, bandwidth, out=memory_time, where=traffic != 0.0)

        overlapped = np.maximum(compute_time, memory_time)
        total = spec.serial_time_s + overlapped
        achieved = np.zeros_like(traffic)
        np.divide(
            traffic, overlapped, out=achieved,
            where=(overlapped > 0) & (traffic != 0.0),
        )

        return KernelTimingMatrix(
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            serial_time_s=spec.serial_time_s,
            total_time_s=total,
            achieved_bandwidth_gbps=achieved,
            effective_memory_traffic_gb=traffic,
        )
