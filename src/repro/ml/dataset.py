"""Characterization datasets for offline model training.

The paper trains its Random Forest on kernel-level GPU performance
counters, execution times, and GPU power numbers captured "for several
benchmark suites executed under different GPU/NB configurations".  This
module performs that offline characterization on the modelled APU: it
runs a kernel population over the configuration space, synthesizes each
kernel's Table-III counters, and assembles (features, targets) matrices
with realistic measurement noise.

Feature layout (:func:`build_features`): the eight Table-III counters
followed by seven hardware-configuration features.  Execution time is
modelled in log space (kernel times span orders of magnitude and the
paper's accuracy metric, MAPE, is relative); GPU power is modelled
linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace, HardwareConfig
from repro.hardware.table import ConfigTable
from repro.workloads.counters import COUNTER_NAMES, CounterSynthesizer, CounterVector
from repro.workloads.kernel import KernelSpec

__all__ = ["FEATURE_NAMES", "build_features", "CharacterizationDataset", "build_dataset"]

#: Names of all model features, in column order.
FEATURE_NAMES = tuple(COUNTER_NAMES) + (
    "cpu_freq_ghz",
    "cpu_voltage",
    "nb_freq_ghz",
    "memory_bw_gbps",
    "gpu_freq_ghz",
    "rail_voltage",
    "cu_count",
)


def build_features(counters: CounterVector, config: HardwareConfig) -> np.ndarray:
    """Assemble the model feature vector for (kernel counters, config).

    Args:
        counters: The kernel's Table-III performance counters.
        config: Candidate hardware configuration.

    Returns:
        Float vector of length ``len(FEATURE_NAMES)``.
    """
    return np.concatenate(
        [
            counters.as_array(),
            [
                config.cpu_state.freq_ghz,
                config.cpu_state.voltage,
                config.nb_state.freq_ghz,
                config.memory_bandwidth_gbps,
                config.gpu_state.freq_ghz,
                config.rail_voltage,
                float(config.cu),
            ],
        ]
    )


@dataclass
class CharacterizationDataset:
    """An offline characterization run, ready for model fitting.

    Attributes:
        X: Feature matrix, shape (n_samples, n_features).
        log_time: ``log`` of measured kernel times (seconds).
        gpu_power: Measured GPU-rail power (watts).
        kernel_keys: Kernel identity per row (for group-aware splits).
    """

    X: np.ndarray
    log_time: np.ndarray
    gpu_power: np.ndarray
    kernel_keys: List[str]

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def time_s(self) -> np.ndarray:
        """Measured kernel times in seconds (exp of the stored target)."""
        return np.exp(self.log_time)


def build_dataset(
    kernels: Sequence[KernelSpec],
    apu: Optional[APUModel] = None,
    space: Optional[ConfigSpace] = None,
    time_noise: float = 0.03,
    power_noise: float = 0.08,
    seed: int = 99,
) -> CharacterizationDataset:
    """Characterize a kernel population over a configuration space.

    Args:
        kernels: Kernels to run (typically the synthetic training
            population, *not* the evaluation benchmarks).
        apu: Ground-truth hardware model.
        space: Configurations to sweep; defaults to the full 336-point
            space the paper characterizes.
        time_noise: Relative standard deviation of multiplicative noise
            on measured kernel time.
        power_noise: Relative standard deviation of multiplicative noise
            on measured power (1 ms sampling of a bursty rail is noisy).
        seed: Seed for the measurement-noise stream.

    Returns:
        The assembled dataset.
    """
    if not kernels:
        raise ValueError("need at least one kernel")
    apu = apu if apu is not None else APUModel()
    space = space if space is not None else ConfigSpace()
    # Counters are sampled once per kernel, as a profiler would, by the
    # default (noisy) synthesizer.
    synthesizer = CounterSynthesizer()
    # Independent noise streams: changing the power-noise level must not
    # perturb the time measurements, and vice versa.
    time_rng = np.random.default_rng(seed)
    power_rng = np.random.default_rng(seed + 104729)

    table = ConfigTable(space)
    rows: List[np.ndarray] = []
    log_times: List[float] = []
    powers: List[float] = []
    keys: List[str] = []

    for spec in kernels:
        counters = synthesizer.observe(spec)
        # One ground-truth evaluation per kernel, read row by row in
        # configuration order: each row takes the next draw of both
        # noise streams.
        measured = apu.execute_matrix(spec, table)
        for config, time_s, gpu_power_w in zip(
            table.configs,
            measured.times_s.tolist(),
            measured.gpu_power_w.tolist(),
        ):
            time_factor = max(0.5, 1.0 + time_rng.normal(0.0, time_noise))
            power_factor = max(0.5, 1.0 + power_rng.normal(0.0, power_noise))
            rows.append(build_features(counters, config))
            log_times.append(np.log(time_s * time_factor))
            powers.append(gpu_power_w * power_factor)
            keys.append(spec.key)

    return CharacterizationDataset(
        X=np.vstack(rows),
        log_time=np.asarray(log_times),
        gpu_power=np.asarray(powers),
        kernel_keys=keys,
    )
