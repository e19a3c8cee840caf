"""Baseline power-management policies: fixed, planned, and PPK.

* :class:`FixedConfigPolicy` runs everything at one configuration.
* :class:`PlannedPolicy` replays a precomputed per-launch plan (used by
  the theoretically-optimal solver, which plans offline).
* :class:`PPKPolicy` is the paper's "Predict Previous Kernel" scheme —
  the stand-in for state-of-the-art history-based managers: it assumes
  the kernel that just finished will repeat next and picks the energy
  optimal configuration for it, with no knowledge of the future.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.core.pattern import KernelPatternExtractor
from repro.core.tracker import PerformanceTracker
from repro.hardware.config import ConfigSpace, HardwareConfig, default_space
from repro.ml.predictors import PerfPowerPredictor
from repro.sim.policy import Decision, Observation, PowerPolicy
from repro.workloads.counters import CounterVector

__all__ = ["FixedConfigPolicy", "PlannedPolicy", "PPKPolicy"]


class FixedConfigPolicy(PowerPolicy):
    """Runs every kernel at one fixed configuration, with no overhead."""

    def __init__(self, config: HardwareConfig, name: str = "Fixed") -> None:
        self.config = config
        self.name = name

    def decide(self, index: int) -> Decision:
        return Decision(config=self.config)

    def observe(self, observation: Observation) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}  # stateless: the config is a constructor argument

    def restore(self, payload: Dict[str, Any]) -> None:
        pass


class PlannedPolicy(PowerPolicy):
    """Replays a precomputed per-launch configuration plan.

    Used by offline solvers (e.g. the theoretically-optimal scheme,
    which by definition incurs no runtime overhead).

    Args:
        plan: One configuration per launch, in execution order.
        name: Policy name for traces.
    """

    def __init__(self, plan: Sequence[HardwareConfig],
                 name: str = "Planned") -> None:
        if not plan:
            raise ValueError("plan must contain at least one configuration")
        self.plan: List[HardwareConfig] = list(plan)
        self.name = name

    def decide(self, index: int) -> Decision:
        if index >= len(self.plan):
            raise IndexError(
                f"plan has {len(self.plan)} entries but launch {index} requested"
            )
        return Decision(config=self.plan[index])

    def observe(self, observation: Observation) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}  # stateless: the plan is a constructor argument

    def restore(self, payload: Dict[str, Any]) -> None:
        pass


class PPKPolicy(PowerPolicy):
    """Predict Previous Kernel: history-based energy optimization.

    At every kernel boundary PPK optimizes the upcoming kernel assuming
    it behaves exactly like the one that just finished (Equation 2),
    subject to the cumulative throughput staying at or above the target.
    The very first kernel runs at the fail-safe configuration because no
    performance counters exist yet.

    Args:
        target_throughput: The performance target (Turbo Core's I/T).
        predictor: Performance/power model (Random Forest for the
            realistic scheme; the oracle for the Figure-4 limit study).
        space: Searchable configuration space.
    """

    name = "PPK"

    def __init__(
        self,
        target_throughput: float,
        predictor: PerfPowerPredictor,
        space: Optional[ConfigSpace] = None,
    ) -> None:
        self.space = space if space is not None else default_space()
        self.optimizer = GreedyHillClimbOptimizer(self.space, predictor)
        self.tracker = PerformanceTracker(target_throughput)
        self.extractor = KernelPatternExtractor()
        self._fail_safe = self.optimizer.fail_safe

    def begin_run(self) -> None:
        self.tracker.reset()
        self.extractor.end_run()

    def decide(self, index: int) -> Decision:
        record = self.extractor.last_record()
        if record is None:
            return Decision(config=self._fail_safe, fail_safe=True, horizon=0)
        result = self.optimizer.optimize_kernel(record, self.tracker)
        return Decision(
            config=result.config,
            model_evaluations=result.evaluations,
            horizon=1,
            fail_safe=result.fail_safe,
        )

    def prefetch_counters(self, index: int) -> Sequence[CounterVector]:
        """PPK's next decision always sweeps the previous kernel."""
        record = self.extractor.last_record()
        return (record.counters,) if record is not None else ()

    def observe(self, observation: Observation) -> None:
        self.tracker.update(
            observation.instructions, observation.measurement.time_s
        )
        self.extractor.observe(
            observation.counters,
            observation.instructions,
            observation.measurement.time_s,
            observation.measurement.gpu_power_w,
        )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "tracker": self.tracker.snapshot(),
            "extractor": self.extractor.snapshot(),
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        self.tracker.restore(payload["tracker"])
        self.extractor.restore(payload["extractor"])
