"""Run traces: per-launch records and whole-run aggregates.

The simulator produces one :class:`LaunchRecord` per kernel launch and
collects them into a :class:`RunResult`.  Aggregates follow the paper's
accounting: *performance* is total kernel time plus optimizer overhead
time; *energy* is total chip energy including the optimizer's CPU energy
and the GPU's idle leakage while the optimizer runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hardware.config import HardwareConfig

__all__ = ["LaunchRecord", "RunResult"]


@dataclass(frozen=True)
class LaunchRecord:
    """Everything measured about one kernel launch.

    Attributes:
        index: Zero-based launch index.
        kernel_key: Identity of the launched kernel (name + input tag).
        config: Configuration the kernel ran at.
        time_s: Kernel wall-clock time.
        gpu_energy_j: GPU-rail energy (GPU + NB) during the kernel.
        cpu_energy_j: CPU-plane energy during the kernel.
        instructions: Hardware instruction count of the launch.
        overhead_time_s: Optimizer time spent before this launch.
        overhead_gpu_energy_j: GPU idle-leakage energy during that time.
        overhead_cpu_energy_j: CPU energy spent running the optimizer.
        horizon: Prediction-horizon allowance H_i the policy used for
            this launch (0 if the policy has no horizon concept).
        fail_safe: Whether the policy fell back to fail-safe.
    """

    index: int
    kernel_key: str
    config: HardwareConfig
    time_s: float
    gpu_energy_j: float
    cpu_energy_j: float
    instructions: float
    overhead_time_s: float = 0.0
    overhead_gpu_energy_j: float = 0.0
    overhead_cpu_energy_j: float = 0.0
    horizon: int = 0
    fail_safe: bool = False

    @property
    def energy_j(self) -> float:
        """Total chip energy for the launch, excluding overhead."""
        return self.gpu_energy_j + self.cpu_energy_j

    @property
    def overhead_energy_j(self) -> float:
        """Total optimizer-overhead energy attributed to this launch."""
        return self.overhead_gpu_energy_j + self.overhead_cpu_energy_j

    @property
    def throughput(self) -> float:
        """Instructions per second of the kernel itself."""
        return self.instructions / self.time_s


@dataclass
class RunResult:
    """Aggregate result of running one application under one policy.

    Attributes:
        app_name: Application that was run.
        policy_name: Policy that managed it.
        launches: Per-launch records, in execution order.
        base_index: Launch index of the first record this trace covers.
            ``0`` for a complete run; a session resumed mid-run from a
            snapshot traces only its post-resume launches, keeping
            their original indices.
    """

    app_name: str
    policy_name: str
    launches: List[LaunchRecord] = field(default_factory=list)
    base_index: int = 0

    def append(self, record: LaunchRecord) -> None:
        """Add the next launch record."""
        expected = self.base_index + len(self.launches)
        if record.index != expected:
            raise ValueError(
                f"out-of-order record: got index {record.index}, "
                f"expected {expected}"
            )
        self.launches.append(record)

    # ----- time ------------------------------------------------------------

    @property
    def kernel_time_s(self) -> float:
        """Total kernel execution time (no overheads)."""
        return sum(r.time_s for r in self.launches)

    @property
    def overhead_time_s(self) -> float:
        """Total optimizer overhead time."""
        return sum(r.overhead_time_s for r in self.launches)

    @property
    def total_time_s(self) -> float:
        """Kernel time plus optimizer overhead (the paper's performance)."""
        return self.kernel_time_s + self.overhead_time_s

    # ----- energy ----------------------------------------------------------

    @property
    def gpu_energy_j(self) -> float:
        """GPU-rail energy including idle leakage during optimization."""
        return sum(r.gpu_energy_j + r.overhead_gpu_energy_j for r in self.launches)

    @property
    def cpu_energy_j(self) -> float:
        """CPU-plane energy including optimizer compute."""
        return sum(r.cpu_energy_j + r.overhead_cpu_energy_j for r in self.launches)

    @property
    def overhead_energy_j(self) -> float:
        """Total optimizer-overhead energy (CPU + GPU idle leakage)."""
        return sum(r.overhead_energy_j for r in self.launches)

    @property
    def energy_j(self) -> float:
        """Total chip energy including all overheads."""
        return self.gpu_energy_j + self.cpu_energy_j

    # ----- work ------------------------------------------------------------

    @property
    def instructions(self) -> float:
        """Total instructions executed."""
        return sum(r.instructions for r in self.launches)

    @property
    def throughput(self) -> float:
        """Overall kernel throughput: instructions per total time."""
        return self.instructions / self.total_time_s

    @property
    def mean_horizon(self) -> float:
        """Average prediction-horizon length across launches."""
        if not self.launches:
            return 0.0
        return sum(r.horizon for r in self.launches) / len(self.launches)

    def cumulative_throughputs(self) -> List[float]:
        """Running ΣI/ΣT after each launch (kernel time only)."""
        out = []
        insts = 0.0
        time = 0.0
        for record in self.launches:
            insts += record.instructions
            time += record.time_s
            out.append(insts / time)
        return out

    def __len__(self) -> int:
        return len(self.launches)
