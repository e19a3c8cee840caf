"""The AMD Turbo Core baseline policy (state of the practice).

Turbo Core, as the paper describes it (Section V-B), "controls the DVFS
states based on the recent resource utilization, and shifts power
between the GPU and CPU based on their recent load.  For these GPGPU
applications, the CPU busy waits while the GPU is executing the kernel.
Therefore, Turbo Core does not drop the CPU DVFS states as long as the
system stays within its TDP."

The policy therefore boosts everything — highest CPU P-state, NB0, the
fastest GPU DPM state, all compute units — and only backs the CPU off
(then the GPU) reactively when the *measured* chip power of the previous
interval exceeded the TDP.  It is a hardware power controller: it incurs
no software optimization overhead.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.hardware.config import ConfigSpace, HardwareConfig, Knob, default_space
from repro.obs.tracing import LaunchNote
from repro.sim.policy import Decision, Observation, PowerPolicy

__all__ = ["TurboCorePolicy"]

#: Power margin below TDP required before boosting a previously lowered
#: state back up.
BOOST_HEADROOM_W = 5.0


class TurboCorePolicy(PowerPolicy):
    """Reactive boost-to-TDP controller modelled on AMD Turbo Core.

    Args:
        tdp_w: Chip TDP the controller regulates to.
        space: Configuration space whose CPU/GPU axes are used for
            backoff steps; defaults to the full space.
    """

    name = "TurboCore"

    def __init__(self, tdp_w: float = 95.0,
                 space: Optional[ConfigSpace] = None) -> None:
        self.tdp_w = tdp_w
        self.space = space if space is not None else default_space()
        self._config = self._boost_config()
        self._last_power_w: Optional[float] = None

    def _boost_config(self) -> HardwareConfig:
        return self.space.fastest()

    def begin_run(self) -> None:
        self._config = self._boost_config()
        self._last_power_w = None

    def decide(self, index: int, note: Optional[LaunchNote] = None) -> Decision:
        return Decision(config=self._config, model_evaluations=0)

    def observe(self, observation: Observation) -> None:
        power = observation.measurement.total_power_w
        self._last_power_w = power
        if power > self.tdp_w:
            self._back_off()
        elif power < self.tdp_w - BOOST_HEADROOM_W:
            self._boost()

    def _back_off(self) -> None:
        """Shed power: drop CPU states first, then the GPU DPM state."""
        lowered = self.space.step(self._config, Knob.CPU, -1)
        if lowered is None:
            lowered = self.space.step(self._config, Knob.GPU, -1)
        if lowered is not None:
            self._config = lowered

    def _boost(self) -> None:
        """Recover performance states while comfortably inside the TDP."""
        raised = self.space.step(self._config, Knob.GPU, +1)
        if raised is None:
            raised = self.space.step(self._config, Knob.CPU, +1)
        if raised is not None:
            self._config = raised

    # ----- migration -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "config": self._config.as_dict(),
            "last_power_w": self._last_power_w,
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        self._config = HardwareConfig.from_dict(payload["config"])
        last = payload["last_power_w"]
        self._last_power_w = None if last is None else float(last)
