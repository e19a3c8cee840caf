"""Synthetic-error predictors for the accuracy-sensitivity study.

Figure 13 of the paper compares its Random Forest against hypothetical
predictors with the accuracy of recently published models:
``Err_15%_10%`` (15% performance / 10% power error, Wu et al.),
``Err_5%`` (Paul et al.), and a perfect ``Err_0%``.  The paper models
these by drawing errors from a half-normal distribution whose absolute
mean equals the target average error.

:class:`SyntheticErrorPredictor` wraps the oracle and perturbs its
answers that way.  Errors are *deterministic* per (kernel, configuration,
quantity): a real model's error is a bias, not fresh noise per query, so
the optimizer must see consistent values when it revisits a point.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.config import HardwareConfig
from repro.hardware.table import ConfigTable
from repro.ml.predictors import EstimateBatch, PerfPowerPredictor
from repro.workloads.counters import CounterVector

__all__ = ["SyntheticErrorPredictor", "half_normal_sigma"]


def half_normal_sigma(mean_abs_error: float) -> float:
    """Half-normal scale with the requested absolute mean.

    For ``X ~ HalfNormal(sigma)``, ``E[X] = sigma * sqrt(2/pi)``; so a
    target mean error ``m`` needs ``sigma = m * sqrt(pi/2)``.
    """
    if mean_abs_error < 0:
        raise ValueError("mean error must be non-negative")
    return mean_abs_error * math.sqrt(math.pi / 2.0)


class SyntheticErrorPredictor(PerfPowerPredictor):
    """Wraps a predictor with half-normal multiplicative errors.

    Args:
        inner: The underlying (usually oracle) predictor.
        time_error: Target mean absolute relative error on time, e.g.
            ``0.15`` for the paper's Err_15%_10% model.
        power_error: Target mean absolute relative error on GPU power.
        seed: Base seed; errors are reproducible functions of
            (seed, kernel counters, configuration).
    """

    def __init__(self, inner: PerfPowerPredictor, time_error: float,
                 power_error: float, seed: int = 0) -> None:
        self.inner = inner
        self.time_sigma = half_normal_sigma(time_error)
        self.power_sigma = half_normal_sigma(power_error)
        self.seed = seed

    def _factors(self, counters: CounterVector, config: HardwareConfig) -> tuple:
        """Deterministic (time, power) error factors for a query point."""
        signature = counters.signature()
        key = repr((self.seed, signature, config.cpu, config.nb, config.gpu, config.cu))
        digest = hashlib.sha256(key.encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        time_err = abs(rng.normal(0.0, self.time_sigma)) if self.time_sigma else 0.0
        power_err = abs(rng.normal(0.0, self.power_sigma)) if self.power_sigma else 0.0
        time_sign = 1.0 if rng.random() < 0.5 else -1.0
        power_sign = 1.0 if rng.random() < 0.5 else -1.0
        return (
            max(0.05, 1.0 + time_sign * time_err),
            max(0.05, 1.0 + power_sign * power_err),
        )

    def estimate_matrix_many(
        self,
        counters_list: Sequence[CounterVector],
        table: ConfigTable,
        indices: Optional[np.ndarray] = None,
    ) -> List[EstimateBatch]:
        """The inner predictor's batches, scaled row by row by :meth:`_factors`."""
        configs = (
            table.configs if indices is None
            else [table.config_at(int(i)) for i in indices]
        )
        batches = []
        for counters, base in zip(
            counters_list, self.inner.estimate_matrix_many(counters_list, table, indices)
        ):
            factors = np.asarray(
                [self._factors(counters, config) for config in configs], dtype=float
            ).reshape(-1, 2)
            batches.append(EstimateBatch(
                times_s=base.times_s * factors[:, 0],
                gpu_power_w=base.gpu_power_w * factors[:, 1],
                cpu_power_w=base.cpu_power_w,
            ))
        return batches
