"""Kernel specifications: the ground-truth description of a GPU kernel.

A :class:`KernelSpec` captures everything the *hardware model* needs to
compute the execution time and power of one kernel launch at any
hardware configuration.  It plays the role of the physical kernel
binary + input in the paper's testbed: policies never read these fields
directly — they only see performance counters (:mod:`repro.workloads.counters`)
and measurements, exactly as the paper's runtime only sees CodeXL
counters and the power controller's telemetry.

The four scaling classes of the paper's Figure 2 are encoded in
:class:`ScalingClass` and realized through the spec parameters:

* ``COMPUTE``: large ``compute_work`` relative to ``memory_traffic`` and
  a high ``parallel_fraction`` — speeds up with CUs and GPU frequency,
  insensitive to NB state.
* ``MEMORY``: bandwidth-dominated — speeds up with NB state up to NB2,
  saturates with CUs early.
* ``PEAK``: compute-leaning but with non-zero ``cache_interference`` —
  adding CUs beyond ``cache_sweet_spot_cu`` thrashes the shared cache
  and *hurts* performance, so both performance and energy peak at a
  mid-size configuration.
* ``UNSCALABLE``: dominated by ``serial_time_s`` (launch latency,
  divergent/serialized execution) — insensitive to every knob and most
  efficient at the smallest configuration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ScalingClass", "KernelSpec"]


class ScalingClass(enum.Enum):
    """The four kernel scaling behaviours of the paper's Figure 2."""

    COMPUTE = "compute"
    MEMORY = "memory"
    PEAK = "peak"
    UNSCALABLE = "unscalable"


@dataclass(frozen=True)
class KernelSpec:
    """Ground truth characteristics of one GPU kernel (for one input).

    Attributes:
        name: Kernel identity, e.g. ``"kmeansPoint"``.  Kernels with the
            same name but different inputs should use distinct
            ``input_id`` values (the paper's ``F1..F9`` case).
        scaling_class: Which of the four Figure-2 behaviours this kernel
            exhibits.  Only used for labelling/reporting; the timing
            model derives behaviour purely from the numeric fields.
        compute_work: Total vector-ALU work in giga-lane-operations.
        memory_traffic: Off-chip memory traffic in GB at an isolated
            (interference-free) cache operating point.
        parallel_fraction: Amdahl fraction of the compute work that
            scales with the number of active CUs, in ``[0, 1]``.
        serial_time_s: Fixed per-launch serial time in seconds that no
            knob can reduce (kernel launch, serialized sections).
        cache_interference: Fractional extra memory traffic added per
            active CU beyond ``cache_sweet_spot_cu`` (shared-cache
            thrashing; zero for well-behaved kernels).
        cache_sweet_spot_cu: CU count above which cache interference
            begins to add memory traffic.
        compute_efficiency: Fraction of peak lane throughput the kernel
            sustains when compute-bound, in ``(0, 1]`` (issue stalls,
            divergence).
        instructions: Total executed instructions (thread count times
            instructions per thread); the numerator of the paper's
            throughput metric.
        activity_factor: Relative switching activity of the GPU while
            this kernel runs, scaling dynamic power (1.0 = typical).
        input_id: Distinguishes invocations of the same kernel code on
            different inputs; part of the kernel's identity.
    """

    name: str
    scaling_class: ScalingClass
    compute_work: float
    memory_traffic: float
    parallel_fraction: float = 0.95
    serial_time_s: float = 0.0
    cache_interference: float = 0.0
    cache_sweet_spot_cu: int = 8
    compute_efficiency: float = 0.8
    instructions: float = 0.0
    activity_factor: float = 1.0
    input_id: int = 0

    def __post_init__(self) -> None:
        if self.compute_work < 0 or self.memory_traffic < 0:
            raise ValueError("work terms must be non-negative")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if self.serial_time_s < 0:
            raise ValueError("serial_time_s must be non-negative")
        if self.cache_interference < 0:
            raise ValueError("cache_interference must be non-negative")
        if self.compute_work == 0 and self.memory_traffic == 0 and self.serial_time_s == 0:
            raise ValueError("kernel must have some work")
        if self.instructions <= 0:
            # Default the architectural instruction count to the lane
            # work: one giga-lane-op ~ one giga-instruction.
            object.__setattr__(
                self, "instructions", max(1.0, 1e9 * (self.compute_work + 0.25 * self.memory_traffic))
            )

    @property
    def key(self) -> str:
        """Unique identity of (kernel code, input)."""
        if self.input_id:
            return f"{self.name}#{self.input_id}"
        return self.name

    def with_input(self, input_id: int, *, work_scale: float = 1.0,
                   memory_scale: Optional[float] = None) -> "KernelSpec":
        """Derive a variant of this kernel running on a different input.

        Used to build the paper's input-varying benchmarks (hybridsort's
        ``F1..F9``, srad, lulesh, ...), where the same kernel code shows
        different performance/power behaviour per invocation.

        Args:
            input_id: Identity tag of the new input.
            work_scale: Multiplier on compute work and instructions.
            memory_scale: Multiplier on memory traffic; defaults to
                ``work_scale``.

        Returns:
            A new :class:`KernelSpec` for the same kernel code.
        """
        mem_scale = work_scale if memory_scale is None else memory_scale
        return replace(
            self,
            input_id=input_id,
            compute_work=self.compute_work * work_scale,
            memory_traffic=self.memory_traffic * mem_scale,
            instructions=self.instructions * work_scale,
        )

    @property
    def arithmetic_intensity(self) -> float:
        """Giga-lane-ops per GB of memory traffic (roofline x-axis)."""
        if self.memory_traffic == 0:
            return math.inf
        return self.compute_work / self.memory_traffic

    def __str__(self) -> str:
        return (
            f"KernelSpec({self.key}, {self.scaling_class.value}, "
            f"{self.compute_work:.3g} Gops, {self.memory_traffic:.3g} GB)"
        )
