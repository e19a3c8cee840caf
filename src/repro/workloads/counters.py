"""Synthetic GPU performance counters (the paper's Table III).

The paper's runtime identifies kernels and feeds its Random Forest
predictor with eight GPU performance counters captured by AMD CodeXL.
We synthesize the same eight counters from each kernel's ground-truth
characteristics, measured at a fixed reference configuration (the
fastest GPU configuration, as a profiler would see on first encounter).

The synthesis is deliberately *lossy*: counters expose what a profiler
could plausibly observe (work size, ALU/fetch instruction mixes, stall
and hit percentages) but not the latent model parameters (Amdahl
fraction, cache sweet spot).  The Random Forest therefore has realistic,
imperfect information — the source of the paper's 25%/12% MAPE.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.hardware.config import HardwareConfig
from repro.hardware.perf import TimingModel
from repro.hardware.table import ConfigTable
from repro.workloads.kernel import KernelSpec

__all__ = ["COUNTER_NAMES", "CounterVector", "CounterSynthesizer"]

#: The eight selected counters, in Table III order.
COUNTER_NAMES: Tuple[str, ...] = (
    "GlobalWorkSize",
    "MemUnitStalled",
    "CacheHit",
    "VFetchInsts",
    "ScratchRegs",
    "LDSBankConflict",
    "VALUInsts",
    "FetchSize",
)

#: Reference configuration the profiler captures counters at, as the
#: one-row table the timing model reads.
_REFERENCE_TABLE = ConfigTable.from_configs(
    [HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)]
)

#: Instructions one work-item executes, used to derive the work size.
_INSTS_PER_WORK_ITEM = 200.0


@dataclass(frozen=True)
class CounterVector:
    """One kernel's eight Table-III performance counters.

    Attributes mirror Table III; percentages are 0-100, sizes are in the
    units CodeXL reports (work-items, instructions per work-item, kB).
    """

    global_work_size: float
    mem_unit_stalled: float
    cache_hit: float
    vfetch_insts: float
    scratch_regs: float
    lds_bank_conflict: float
    valu_insts: float
    fetch_size: float

    def as_dict(self) -> Dict[str, float]:
        """Counters keyed by their Table III names."""
        return dict(zip(COUNTER_NAMES, self.as_array()))

    def as_array(self) -> np.ndarray:
        """Counters as a float vector in Table III order."""
        return np.array(
            [
                self.global_work_size,
                self.mem_unit_stalled,
                self.cache_hit,
                self.vfetch_insts,
                self.scratch_regs,
                self.lds_bank_conflict,
                self.valu_insts,
                self.fetch_size,
            ],
            dtype=float,
        )

    @classmethod
    def from_array(cls, values) -> "CounterVector":
        """Build a vector from eight floats in Table III order."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(COUNTER_NAMES),):
            raise ValueError(f"expected {len(COUNTER_NAMES)} counters, got {values.shape}")
        return cls(*values.tolist())

    def signature(self) -> Tuple[int, ...]:
        """Log-binned kernel signature (the paper's ``floor(log u)``).

        Kernels whose counters land in the same logarithmic bins are
        treated as the same kernel by the pattern extractor, which is
        how the paper approximates "kernels with similar performance".
        """
        bins = []
        for value in self.as_array():
            bins.append(int(math.floor(math.log(value))) if value > 0 else -1)
        return tuple(bins)

    def blended_with(self, other: "CounterVector", weight: float = 0.5) -> "CounterVector":
        """Exponential-moving-average update used by counter feedback.

        Args:
            other: Freshly observed counters.
            weight: Weight given to the fresh observation.

        Returns:
            The updated stored counters.
        """
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        return CounterVector.from_array(
            (1.0 - weight) * self.as_array() + weight * other.as_array()
        )


#: Most entries :data:`_NOMINAL` keeps, and :data:`_OBSERVED` per
#: synthesizer; a full memo is cleared.  One pass of a shipping workload
#: observes at most a few hundred distinct kernel specs and (kernel,
#: sequence) pairs.
_OBSERVED_BOUND = 4096

#: Noise-free counters per kernel spec: the read-only float64 vector
#: :meth:`CounterSynthesizer.observe` jitters, and the same floats as a
#: list.  Every synthesizer measures at the same reference configuration
#: with the default timing model, so an entry depends on the spec alone
#: and serves every synthesizer.
_NOMINAL: Dict[KernelSpec, Tuple[np.ndarray, List[float]]] = {}

#: Each noisy synthesizer's jittered counters per (kernel spec, launch
#: sequence), as a list of floats.  The jitter is drawn from the
#: synthesizer's seed and noise level (both set once, at construction),
#: the spec's key and the sequence, and it scales the whole spec's
#: nominal counters, so a hit holds exactly the floats a miss computes.
#: Module-level and weak-keyed, like the predictor memos of
#: ``repro.ml.predictors``: a synthesizer pickles and fingerprints the
#: same whether it has observed launches or not (``describe(sim)``
#: feeds every engine cache key).
_OBSERVED: "weakref.WeakKeyDictionary[CounterSynthesizer, Dict[Tuple[KernelSpec, int], List[float]]]" = (
    weakref.WeakKeyDictionary()
)


class CounterSynthesizer:
    """Derives Table-III counters from ground-truth kernel specs.

    Stall fractions come from the default
    :class:`~repro.hardware.perf.TimingModel` at the reference
    configuration.

    Args:
        noise: Relative standard deviation of multiplicative measurement
            noise applied per observation (0 disables noise).
        seed: Seed for the measurement-noise stream.
    """

    def __init__(self, noise: float = 0.02, seed: int = 1234) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.timing = TimingModel()
        self.noise = noise
        self.seed = seed

    def nominal(self, spec: KernelSpec) -> CounterVector:
        """Noise-free counters for a kernel at the reference config.

        Computed on every call; :meth:`observe` reads them through
        :data:`_NOMINAL`.
        """
        timing = self.timing.kernel_timing_matrix(spec, _REFERENCE_TABLE)
        compute_time = float(timing.compute_time_s[0])
        memory_time = float(timing.memory_time_s[0])
        total_time = float(timing.total_time_s[0])

        work_items = max(64.0, spec.instructions / _INSTS_PER_WORK_ITEM)

        busy = compute_time + memory_time
        mem_share = memory_time / busy if busy > 0 else 0.0
        serial_share = (
            timing.serial_time_s / total_time if total_time > 0 else 0.0
        )
        mem_unit_stalled = 100.0 * mem_share * (1.0 - 0.4 * serial_share)

        # Cache hit rate falls with memory traffic per unit compute and
        # with shared-cache interference pressure.
        intensity = spec.arithmetic_intensity
        base_hit = 95.0 if math.isinf(intensity) else 95.0 * intensity / (intensity + 2.0)
        cache_hit = max(2.0, base_hit - 120.0 * spec.cache_interference)

        vfetch = (spec.memory_traffic * 1e9 / 64.0) / work_items  # 64 B lines
        valu = spec.compute_work * 1e9 / work_items

        # Register pressure loosely tracks per-item compute complexity.
        scratch = 4.0 + 10.0 * math.log1p(valu / 50.0)

        # LDS bank conflicts stand in for the serialization that limits
        # CU scaling (low Amdahl fraction => heavy conflicts).
        lds_conflict = 100.0 * (1.0 - spec.parallel_fraction) ** 0.5

        fetch_kb = spec.memory_traffic * 1e6  # GB -> kB

        return CounterVector(
            global_work_size=work_items,
            mem_unit_stalled=min(100.0, mem_unit_stalled),
            cache_hit=min(100.0, cache_hit),
            vfetch_insts=vfetch,
            scratch_regs=scratch,
            lds_bank_conflict=min(100.0, lds_conflict),
            valu_insts=valu,
            fetch_size=fetch_kb,
        )

    def observe(self, spec: KernelSpec, sequence: int = 0) -> CounterVector:
        """Counters as sampled at runtime, with measurement noise.

        The noise is a pure function of (seed, kernel, sequence) so that
        replaying the same launch sequence always observes the same
        counters, regardless of what else ran before — experiments stay
        reproducible and order-independent.

        Args:
            spec: The kernel that was launched.
            sequence: Position of the launch within its run (ties the
                noise draw to the launch, not to global call order).
        """
        # A new vector on every call: the optimizer's sweep cache is
        # keyed by vector object.
        if self.noise == 0.0:
            return CounterVector(*self._nominal_entry(spec)[1])
        memo = _OBSERVED.get(self)
        if memo is None:
            memo = _OBSERVED[self] = {}
        key = (spec, sequence)
        values = memo.get(key)
        if values is None:
            nominal = self._nominal_entry(spec)[0]
            digest = hashlib.sha256(
                repr((self.seed, spec.key, sequence)).encode()
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            jitter = rng.normal(1.0, self.noise, size=nominal.shape)
            values = np.clip(nominal * jitter, 0.0, None).tolist()
            if len(memo) >= _OBSERVED_BOUND:
                memo.clear()
            memo[key] = values
        return CounterVector(*values)

    def _nominal_entry(self, spec: KernelSpec) -> Tuple[np.ndarray, List[float]]:
        """The :data:`_NOMINAL` entry of ``spec``, computed on first use."""
        entry = _NOMINAL.get(spec)
        if entry is None:
            array = self.nominal(spec).as_array()
            array.flags.writeable = False
            if len(_NOMINAL) >= _OBSERVED_BOUND:
                _NOMINAL.clear()
            entry = _NOMINAL[spec] = (array, array.tolist())
        return entry
