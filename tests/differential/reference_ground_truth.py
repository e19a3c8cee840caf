"""Per-configuration ground truth: the oracle the shipping model is checked against.

The shipping ground truth is columnar.
:meth:`~repro.hardware.perf.TimingModel.kernel_timing_matrix`,
:meth:`~repro.hardware.power.PowerModel.kernel_power_matrix` and
:meth:`~repro.hardware.thermal.ThermalModel.solve_many` evaluate a whole
:class:`~repro.hardware.table.ConfigTable` at once, and a launch, a
counter synthesis or a training row reads one row of that evaluation.
This module writes the same roofline timing, ``C·V²·f`` + leakage power
and thermal fixed point the plain way: one
:class:`~repro.hardware.config.HardwareConfig` at a time, in Python
floats, reading each quantity off the configuration's DVFS states.  It
shares no code with the shipping model; it reads only the calibration
constants of the model objects it is handed.

Operations run in the order the model specifies, so the shipping model
must equal it with ``==``, float for float.  The nominal leakage keeps
its explicit ``* 1.0`` and ``* 0.0`` leak factors, which are exact
identities in IEEE arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hardware.apu import APUModel, Measurement
from repro.hardware.config import HardwareConfig
from repro.hardware.perf import TimingModel
from repro.hardware.power import PowerBreakdown, PowerModel, PowerModelParams
from repro.hardware.thermal import ThermalModel
from repro.workloads.kernel import KernelSpec

__all__ = ["KernelTiming", "execute", "kernel_timing", "manager_power"]


@dataclass(frozen=True)
class KernelTiming:
    """Timing breakdown of one kernel launch at one configuration."""

    compute_time_s: float
    memory_time_s: float
    serial_time_s: float
    total_time_s: float
    achieved_bandwidth_gbps: float
    effective_memory_traffic_gb: float

    @property
    def compute_utilization(self) -> float:
        """Fraction of the overlapped window the compute pipeline is busy."""
        window = self.total_time_s - self.serial_time_s
        if window <= 0:
            return 0.0
        return min(1.0, self.compute_time_s / window)


# ----- timing ------------------------------------------------------------------


def amdahl_speedup(spec: KernelSpec, cu: int) -> float:
    """Compute-side speedup of ``cu`` CUs over a single CU."""
    p = spec.parallel_fraction
    return 1.0 / ((1.0 - p) + p / cu)


def effective_memory_traffic(spec: KernelSpec, cu: int) -> float:
    """Memory traffic in GB, inflated per CU beyond the cache sweet spot."""
    extra_cus = max(0, cu - spec.cache_sweet_spot_cu)
    return spec.memory_traffic * (1.0 + spec.cache_interference * extra_cus)


def achievable_bandwidth(model: TimingModel, config: HardwareConfig) -> float:
    """The NB state's bus bandwidth, capped by the GPU's request rate."""
    bus = config.memory_bandwidth_gbps
    demand = model.bw_demand_per_cu_ghz * config.cu * config.gpu_state.freq_ghz
    return min(bus, demand)


def kernel_timing(model: TimingModel, spec: KernelSpec,
                  config: HardwareConfig) -> KernelTiming:
    """Full timing breakdown of one kernel launch at one config."""
    f_gpu = config.gpu_state.freq_ghz
    lane_rate = (
        model.lanes_per_cu
        * f_gpu
        * spec.compute_efficiency
        * amdahl_speedup(spec, config.cu)
    )
    compute_time = spec.compute_work / lane_rate if spec.compute_work else 0.0

    traffic = effective_memory_traffic(spec, config.cu)
    bandwidth = achievable_bandwidth(model, config)
    memory_time = traffic / bandwidth if traffic else 0.0

    overlapped = max(compute_time, memory_time)
    total = spec.serial_time_s + overlapped
    achieved = traffic / overlapped if overlapped > 0 and traffic else 0.0

    return KernelTiming(
        compute_time_s=compute_time,
        memory_time_s=memory_time,
        serial_time_s=spec.serial_time_s,
        total_time_s=total,
        achieved_bandwidth_gbps=achieved,
        effective_memory_traffic_gb=traffic,
    )


# ----- thermal -----------------------------------------------------------------


def temperature(thermal: ThermalModel, total_power_w: float) -> float:
    """Steady-state die temperature at a given total chip power."""
    return thermal.ambient_c + thermal.theta_c_per_w * total_power_w


def leakage_factor(thermal: ThermalModel, temperature_c: float) -> float:
    """Multiplier on nominal leakage power at a die temperature."""
    factor = 1.0 + thermal.leakage_tc_per_c * (temperature_c - thermal.reference_c)
    return max(0.5, factor)


def solve(thermal: ThermalModel, dynamic_power_w: float,
          nominal_leakage_w: float, iterations: int = 3) -> Tuple[float, float]:
    """Fixed-point solve for (temperature, leakage factor)."""
    factor = 1.0
    temp = temperature(thermal, dynamic_power_w + nominal_leakage_w)
    for _ in range(iterations):
        factor = leakage_factor(thermal, temp)
        temp = temperature(thermal, dynamic_power_w + nominal_leakage_w * factor)
    return temp, factor


# ----- power -------------------------------------------------------------------


def cpu_power(p: PowerModelParams, config: HardwareConfig, busy_cores: int,
              leak_factor: float) -> float:
    """CPU-plane power with ``busy_cores`` spinning, rest gated."""
    state = config.cpu_state
    v2f = state.voltage**2 * state.freq_ghz
    dynamic = (
        busy_cores * p.cpu_busy_w_per_v2ghz
        + (p.cpu_cores - busy_cores) * p.cpu_idle_w_per_v2ghz
    ) * v2f
    leakage = p.cpu_leak_w_per_v * state.voltage * leak_factor
    return dynamic + leakage


def gpu_dynamic_power(p: PowerModelParams, config: HardwareConfig,
                      compute_util: float, activity: float) -> float:
    """GPU core switching power at a utilization/activity level."""
    v_rail = config.rail_voltage
    return (
        p.gpu_dyn_w_per_cu_v2ghz
        * config.cu
        * v_rail**2
        * config.gpu_state.freq_ghz
        * compute_util
        * activity
    )


def gpu_leakage_power(p: PowerModelParams, config: HardwareConfig,
                      leak_factor: float) -> float:
    """GPU leakage: inactive CUs are power-gated and leak nothing."""
    v_rail = config.rail_voltage
    nominal = (p.gpu_leak_base_w_per_v + p.gpu_leak_w_per_cu_v * config.cu) * v_rail
    return nominal * leak_factor


def nb_power(p: PowerModelParams, config: HardwareConfig,
             achieved_bw_gbps: float, leak_factor: float) -> float:
    """Northbridge + DRAM interface power."""
    v_rail = config.rail_voltage
    dynamic = p.nb_dyn_w_per_v2ghz * v_rail**2 * config.nb_state.freq_ghz
    leakage = p.nb_leak_w_per_v * v_rail * leak_factor
    dram = p.dram_base_w + p.dram_w_per_gbps * achieved_bw_gbps
    return dynamic + leakage + dram


def kernel_power(model: PowerModel, config: HardwareConfig, timing: KernelTiming,
                 activity: float) -> PowerBreakdown:
    """Average chip power while a kernel runs at ``config``.

    The CPU busy-waits (one spinning core); leakage and temperature are
    solved self-consistently through the thermal model.
    """
    p = model.params
    gpu_dyn = gpu_dynamic_power(p, config, timing.compute_utilization, activity)
    nb_base = nb_power(p, config, timing.achieved_bandwidth_gbps, leak_factor=1.0)
    cpu_dyn_only = cpu_power(p, config, busy_cores=1, leak_factor=0.0)
    nominal_leak = (
        gpu_leakage_power(p, config, 1.0)
        + p.cpu_leak_w_per_v * config.cpu_state.voltage
    )
    dynamic = gpu_dyn + nb_base + cpu_dyn_only
    temp, factor = solve(model.thermal, dynamic, nominal_leak)
    return PowerBreakdown(
        gpu_dynamic_w=gpu_dyn,
        gpu_leakage_w=gpu_leakage_power(p, config, factor),
        nb_w=nb_base,
        cpu_w=cpu_power(p, config, busy_cores=1, leak_factor=factor),
        temperature_c=temp,
    )


def manager_power(model: PowerModel, config: HardwareConfig) -> PowerBreakdown:
    """Chip power while the manager runs on one CPU core and the GPU idles."""
    p = model.params
    cpu_dyn_only = cpu_power(p, config, busy_cores=1, leak_factor=0.0)
    nominal_leak = p.gpu_idle_leak_w + p.cpu_leak_w_per_v * config.cpu_state.voltage
    temp, factor = solve(model.thermal, cpu_dyn_only, nominal_leak)
    return PowerBreakdown(
        gpu_dynamic_w=0.0,
        gpu_leakage_w=p.gpu_idle_leak_w * factor,
        nb_w=0.0,
        cpu_w=cpu_power(p, config, busy_cores=1, leak_factor=factor),
        temperature_c=temp,
    )


def execute(apu: APUModel, spec: KernelSpec,
            config: HardwareConfig) -> Tuple[Measurement, PowerBreakdown]:
    """One launch's telemetry and power breakdown, computed from scratch."""
    timing = kernel_timing(apu.timing, spec, config)
    breakdown = kernel_power(apu.power, config, timing, spec.activity_factor)
    measurement = Measurement(
        time_s=timing.total_time_s,
        gpu_power_w=breakdown.gpu_w,
        cpu_power_w=breakdown.cpu_w,
        temperature_c=breakdown.temperature_c,
    )
    return measurement, breakdown
