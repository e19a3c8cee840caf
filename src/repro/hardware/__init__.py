"""Hardware substrate: the modelled AMD A10-7850K APU.

This package replaces the paper's physical testbed with an analytical
model: Table-I DVFS tables (:mod:`~repro.hardware.dvfs`), the 336-point
configuration space (:mod:`~repro.hardware.config`), a roofline timing
model (:mod:`~repro.hardware.perf`), a CV²f + leakage power model
(:mod:`~repro.hardware.power`), a thermal coupling model
(:mod:`~repro.hardware.thermal`), and the :class:`~repro.hardware.apu.APUModel`
facade that policies "execute" kernels on.
"""

from repro.hardware.apu import APUModel, Measurement
from repro.hardware.config import FAILSAFE_CONFIG, ConfigSpace, HardwareConfig, Knob
from repro.hardware.dvfs import (
    CPU_PSTATES,
    CU_COUNTS,
    GPU_DPM_STATES,
    NB_MEMORY_FREQ_MHZ,
    NB_PSTATES,
    SEARCHED_GPU_STATES,
    DvfsState,
    memory_bus_bandwidth_gbps,
    rail_voltage,
)
from repro.hardware.perf import TimingModel
from repro.hardware.power import PowerBreakdown, PowerModel, PowerModelParams
from repro.hardware.table import ConfigTable
from repro.hardware.telemetry import PowerSample, PowerTelemetry, PowerTrace
from repro.hardware.thermal import ThermalModel

__all__ = [
    "APUModel",
    "Measurement",
    "ConfigSpace",
    "ConfigTable",
    "HardwareConfig",
    "Knob",
    "FAILSAFE_CONFIG",
    "DvfsState",
    "CPU_PSTATES",
    "NB_PSTATES",
    "GPU_DPM_STATES",
    "NB_MEMORY_FREQ_MHZ",
    "SEARCHED_GPU_STATES",
    "CU_COUNTS",
    "rail_voltage",
    "memory_bus_bandwidth_gbps",
    "TimingModel",
    "PowerBreakdown",
    "PowerModel",
    "PowerModelParams",
    "PowerSample",
    "PowerTelemetry",
    "PowerTrace",
    "ThermalModel",
]
