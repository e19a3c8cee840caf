"""Thermal model: die temperature and leakage coupling.

The paper notes that lowering CPU DVFS states "can slightly reduce the
GPU power due to a reduction in temperature and leakage" (Section II-A).
This module provides the small fixed-point model that realizes that
coupling: die temperature rises linearly with total chip power through a
thermal resistance, and static (leakage) power grows linearly with
temperature around a reference point.

The coupling is deliberately mild — it produces the second-order effect
the paper describes without dominating the energy landscape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ThermalModel"]


@dataclass(frozen=True)
class ThermalModel:
    """Linear thermal resistance + linearized leakage-vs-temperature.

    Attributes:
        ambient_c: Ambient (idle die) temperature in Celsius.
        theta_c_per_w: Thermal resistance junction-to-ambient, °C/W.
        leakage_tc_per_c: Fractional leakage increase per °C above the
            reference temperature.
        reference_c: Temperature at which the nominal leakage
            coefficients are specified.
    """

    ambient_c: float = 45.0
    theta_c_per_w: float = 0.35
    leakage_tc_per_c: float = 0.008
    reference_c: float = 65.0

    def solve_many(self, dynamic_power_w: np.ndarray,
                   nominal_leakage_w: np.ndarray,
                   iterations: int = 3) -> tuple:
        """Fixed-point solve for (temperature, leakage factor), elementwise.

        Leakage depends on temperature and temperature on total power
        (dynamic + leakage): die temperature is ``ambient + theta *
        power`` and leakage scales by ``1 + tc * (temp - reference)``,
        floored at 0.5.  A few fixed-point iterations converge to well
        under 0.1 °C for realistic chip powers.  Inputs are float64
        arrays (or floats) of non-negative watts.

        Args:
            dynamic_power_w: Temperature-independent power in watts.
            nominal_leakage_w: Leakage at the reference temperature.
            iterations: Fixed-point iterations to run.

        Returns:
            Tuple ``(temperature_c, leakage_factor)``, shaped like the
            inputs.
        """
        temp = self.ambient_c + self.theta_c_per_w * (
            dynamic_power_w + nominal_leakage_w
        )
        factor = np.ones_like(temp)
        for _ in range(iterations):
            factor = np.maximum(
                0.5, 1.0 + self.leakage_tc_per_c * (temp - self.reference_c)
            )
            temp = self.ambient_c + self.theta_c_per_w * (
                dynamic_power_w + nominal_leakage_w * factor
            )
        return temp, factor
