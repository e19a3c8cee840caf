"""Ground-truth power model of the modelled APU.

Power is split the way the paper's testbed reports it:

* **GPU power** includes the northbridge, because GPU and NB share a
  voltage rail on the A10-7850K and the power-management controller
  reports them together ("The NB power is included in the GPU
  measurement, since they share the same voltage rail", Section V).
* **CPU power** covers all CPU cores on their own power plane.  During
  GPU kernels the host CPU busy-waits: one core spins at full activity
  while the remaining cores sit clock-gated, which is why dropping the
  CPU P-state saves substantial energy at no kernel-performance cost —
  the effect behind the paper's "75% of MPC's savings come from the
  CPU".

Dynamic power follows the classic ``C · V² · f`` form per domain, scaled
by how busy the domain actually is during the kernel (from the timing
model's utilization figures).  Leakage scales with voltage and die
temperature through :class:`repro.hardware.thermal.ThermalModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.config import HardwareConfig
from repro.hardware.perf import KernelTimingMatrix
from repro.hardware.table import ConfigTable
from repro.hardware.thermal import ThermalModel

__all__ = [
    "PowerBreakdown",
    "PowerBreakdownMatrix",
    "PowerModel",
    "PowerModelParams",
]


@dataclass(frozen=True)
class PowerBreakdown:
    """Average power draw during one kernel launch, by component.

    Attributes:
        gpu_dynamic_w: GPU core switching power.
        gpu_leakage_w: GPU leakage (active CUs only; gated CUs leak ~0).
        nb_w: Northbridge + DRAM interface power (shares the GPU rail).
        cpu_w: Total CPU-plane power (busy-wait or manager workload).
        temperature_c: Steady-state die temperature.
    """

    gpu_dynamic_w: float
    gpu_leakage_w: float
    nb_w: float
    cpu_w: float
    temperature_c: float

    @property
    def gpu_w(self) -> float:
        """GPU-rail power as the testbed reports it (GPU + NB)."""
        return self.gpu_dynamic_w + self.gpu_leakage_w + self.nb_w

    @property
    def total_w(self) -> float:
        """Total chip power."""
        return self.gpu_w + self.cpu_w


@dataclass(frozen=True)
class PowerBreakdownMatrix:
    """Per-config power columns: struct-of-arrays :class:`PowerBreakdown`.

    Each field is a float64 array over a :class:`ConfigTable` row set.
    """

    gpu_dynamic_w: np.ndarray
    gpu_leakage_w: np.ndarray
    nb_w: np.ndarray
    cpu_w: np.ndarray
    temperature_c: np.ndarray

    @property
    def gpu_w(self) -> np.ndarray:
        """GPU-rail power column (GPU + NB)."""
        return self.gpu_dynamic_w + self.gpu_leakage_w + self.nb_w

    @property
    def total_w(self) -> np.ndarray:
        """Total chip power column."""
        return self.gpu_w + self.cpu_w

    def breakdown(self, i: int) -> PowerBreakdown:
        """The scalar :class:`PowerBreakdown` of one row."""
        return PowerBreakdown(
            gpu_dynamic_w=float(self.gpu_dynamic_w[i]),
            gpu_leakage_w=float(self.gpu_leakage_w[i]),
            nb_w=float(self.nb_w[i]),
            cpu_w=float(self.cpu_w[i]),
            temperature_c=float(self.temperature_c[i]),
        )


@dataclass(frozen=True)
class PowerModelParams:
    """Calibration constants of the power model.

    The defaults are chosen so the modelled part lands in the envelope
    of the real 95 W-TDP A10-7850K: ~25 W CPU plane at P1 busy-wait,
    ~6 W at P7; ~35 W GPU rail flat-out, ~4 W at the smallest
    configuration.

    Attributes:
        gpu_dyn_w_per_cu_v2ghz: GPU dynamic power per CU per V²·GHz.
        gpu_leak_base_w_per_v: Voltage-proportional GPU leakage floor.
        gpu_leak_w_per_cu_v: Additional leakage per *active* (ungated) CU.
        nb_dyn_w_per_v2ghz: NB dynamic power per V²·GHz of NB clock.
        nb_leak_w_per_v: NB leakage per volt of rail voltage.
        dram_w_per_gbps: DRAM interface power per GB/s actually moved.
        dram_base_w: DRAM interface standby power.
        cpu_busy_w_per_v2ghz: Dynamic power of one spinning CPU core.
        cpu_idle_w_per_v2ghz: Dynamic power of one clock-gated core.
        cpu_leak_w_per_v: CPU-plane leakage per volt.
        cpu_cores: Number of CPU cores on the plane.
        gpu_idle_leak_w: GPU rail leakage when the GPU is idle (between
            kernels, e.g. while the MPC optimizer runs on the CPU).
        tdp_w: Chip thermal design power (used by Turbo Core).
    """

    gpu_dyn_w_per_cu_v2ghz: float = 3.2
    gpu_leak_base_w_per_v: float = 1.2
    gpu_leak_w_per_cu_v: float = 0.55
    nb_dyn_w_per_v2ghz: float = 1.4
    nb_leak_w_per_v: float = 0.8
    dram_w_per_gbps: float = 0.12
    dram_base_w: float = 1.5
    cpu_busy_w_per_v2ghz: float = 2.2
    cpu_idle_w_per_v2ghz: float = 0.3
    cpu_leak_w_per_v: float = 3.0
    cpu_cores: int = 4
    gpu_idle_leak_w: float = 1.6
    tdp_w: float = 95.0


class PowerModel:
    """Computes component powers for kernels and manager phases.

    Leakage and die temperature settle through the default
    :class:`~repro.hardware.thermal.ThermalModel`.

    Args:
        params: Calibration constants.
    """

    def __init__(self, params: PowerModelParams = PowerModelParams()) -> None:
        self.params = params
        self.thermal = ThermalModel()

    # ----- component building blocks -------------------------------------

    def cpu_power(self, config: HardwareConfig, busy_cores: int = 1,
                  leak_factor: float = 1.0) -> float:
        """CPU-plane power with ``busy_cores`` spinning, rest gated."""
        p = self.params
        if not 0 <= busy_cores <= p.cpu_cores:
            raise ValueError("busy_cores out of range")
        state = config.cpu_state
        v2f = state.voltage**2 * state.freq_ghz
        dynamic = (
            busy_cores * p.cpu_busy_w_per_v2ghz
            + (p.cpu_cores - busy_cores) * p.cpu_idle_w_per_v2ghz
        ) * v2f
        leakage = p.cpu_leak_w_per_v * state.voltage * leak_factor
        return dynamic + leakage

    # ----- whole-chip scenarios -------------------------------------------

    def kernel_power_matrix(
        self, table: ConfigTable, timing: KernelTimingMatrix,
        activity: float = 1.0, indices: Optional[np.ndarray] = None,
    ) -> PowerBreakdownMatrix:
        """Average chip power while a kernel runs, per configuration.

        The only kernel power model: every launch and training row reads
        a row of it.  The CPU busy-waits (one spinning core, the rest
        clock-gated); leakage and temperature are solved
        self-consistently through the thermal model.  Each row depends
        on that row's configuration alone (elementwise float64).

        Args:
            table: Columnar configuration set.
            timing: Timing columns for the same rows (from
                :meth:`TimingModel.kernel_timing_matrix`).
            activity: The kernel's switching activity factor.
            indices: Optional flat row indices; all rows when ``None``.
        """
        p = self.params
        if indices is None:
            v_rail = table.rail_voltage
            cu = table.cu_count
            f_gpu = table.gpu_freq_ghz
            nb_freq = table.nb_freq_ghz
            cpu_voltage = table.cpu_voltage
            cpu_freq = table.cpu_freq_ghz
        else:
            v_rail = table.rail_voltage[indices]
            cu = table.cu_count[indices]
            f_gpu = table.gpu_freq_ghz[indices]
            nb_freq = table.nb_freq_ghz[indices]
            cpu_voltage = table.cpu_voltage[indices]
            cpu_freq = table.cpu_freq_ghz[indices]

        gpu_dyn = (
            p.gpu_dyn_w_per_cu_v2ghz
            * cu
            * v_rail**2
            * f_gpu
            * timing.compute_utilization
            * activity
        )

        # The NB shares the GPU rail; its leakage stays at the nominal
        # factor, and the DRAM interface draws per GB/s actually moved.
        nb_dynamic = p.nb_dyn_w_per_v2ghz * v_rail**2 * nb_freq
        nb_leakage = p.nb_leak_w_per_v * v_rail
        dram = p.dram_base_w + p.dram_w_per_gbps * timing.achieved_bandwidth_gbps
        nb = nb_dynamic + nb_leakage + dram

        # One spinning CPU core, the rest gated (see cpu_power).
        cpu_coef = (
            p.cpu_busy_w_per_v2ghz + (p.cpu_cores - 1) * p.cpu_idle_w_per_v2ghz
        )
        cpu_dynamic = cpu_coef * (cpu_voltage**2 * cpu_freq)

        # Gated CUs leak nothing.
        gpu_leak_nominal = (
            p.gpu_leak_base_w_per_v + p.gpu_leak_w_per_cu_v * cu
        ) * v_rail
        nominal_leak = gpu_leak_nominal + p.cpu_leak_w_per_v * cpu_voltage
        temp, factor = self.thermal.solve_many(
            gpu_dyn + nb + cpu_dynamic, nominal_leak
        )

        return PowerBreakdownMatrix(
            gpu_dynamic_w=gpu_dyn,
            gpu_leakage_w=gpu_leak_nominal * factor,
            nb_w=nb,
            cpu_w=cpu_dynamic + p.cpu_leak_w_per_v * cpu_voltage * factor,
            temperature_c=temp,
        )

    def manager_power(self, config: HardwareConfig) -> PowerBreakdown:
        """Chip power while the power-management algorithm runs on the CPU.

        The GPU is idle between kernels: no dynamic power, only the idle
        rail leakage (charged to the GPU as the paper's "static energy
        overhead of the GPU during MPC optimization").
        """
        cpu_dyn_only = self.cpu_power(config, busy_cores=1, leak_factor=0.0)
        nominal_leak = (
            self.params.gpu_idle_leak_w
            + self.params.cpu_leak_w_per_v * config.cpu_state.voltage
        )
        temp, factor = self.thermal.solve_many(cpu_dyn_only, nominal_leak)
        factor = float(factor)
        return PowerBreakdown(
            gpu_dynamic_w=0.0,
            gpu_leakage_w=self.params.gpu_idle_leak_w * factor,
            nb_w=0.0,
            cpu_w=self.cpu_power(config, busy_cores=1, leak_factor=factor),
            temperature_c=float(temp),
        )
