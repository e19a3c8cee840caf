"""The interface between the simulator and power-management policies.

A policy is asked, before each kernel launch, which hardware
configuration to run it at (:meth:`PowerPolicy.decide`).  After the
launch it receives an :class:`Observation` — the telemetry the real
framework would see: the kernel's performance counters, the measured
time and power, and the hardware instruction count.  Policies never see
:class:`~repro.workloads.kernel.KernelSpec` ground truth.

A decision also reports how many predictor evaluations the policy spent
making it; the simulator converts that to wall-clock time and energy on
the host CPU (the paper's "MPC overheads", charged at the framework's
own hardware configuration).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.hardware.apu import Measurement
from repro.hardware.config import HardwareConfig
from repro.obs.tracing import LaunchNote
from repro.workloads.counters import CounterVector

__all__ = ["Decision", "Observation", "PowerPolicy"]


@dataclass(frozen=True)
class Decision:
    """A policy's choice for the next kernel launch.

    Attributes:
        config: Hardware configuration to apply.
        model_evaluations: Number of performance/power-model queries the
            policy made; the simulator charges optimizer overhead
            proportional to this count.
        horizon: Prediction-horizon length used (for reporting; 0 for
            policies without a horizon).
        fail_safe: Whether the policy fell back to the fail-safe
            configuration because no configuration met the target.
    """

    config: HardwareConfig
    model_evaluations: int = 0
    horizon: int = 0
    fail_safe: bool = False


@dataclass(frozen=True)
class Observation:
    """Post-launch telemetry delivered to the policy.

    Attributes:
        index: Zero-based launch index within the application run.
        config: Configuration the kernel actually ran at.
        counters: The kernel's Table-III performance counters, as
            sampled this launch (with measurement noise).
        measurement: Wall-clock time and component powers.
        instructions: Hardware-counted instructions executed.
    """

    index: int
    config: HardwareConfig
    counters: CounterVector
    measurement: Measurement
    instructions: float

    @property
    def throughput(self) -> float:
        """Instructions per second achieved by this launch."""
        return self.instructions / self.measurement.time_s


class PowerPolicy(abc.ABC):
    """Base class for kernel-granularity power-management policies."""

    #: Human-readable policy name for traces and reports.
    name: str = "policy"

    @abc.abstractmethod
    def decide(self, index: int, note: Optional[LaunchNote] = None) -> Decision:
        """Choose the configuration for the ``index``-th kernel launch.

        ``note`` is the launch's record when the host's obs is live.
        """

    @abc.abstractmethod
    def observe(self, observation: Observation) -> None:
        """Receive telemetry for the launch just completed."""

    def fold(self, note: LaunchNote) -> None:
        """Count what :meth:`decide` noted (registry lock held by the host)."""

    def begin_run(self) -> None:
        """Hook called when a new run (application invocation) starts.

        Policies carry state *across* runs of the same application (the
        paper's framework keeps its pattern store between invocations);
        this hook only resets per-run cursors.
        """

    def prefetch_counters(self, index: int) -> Sequence[CounterVector]:
        """Counter vectors :meth:`decide` is expected to sweep next.

        The batched runtime path (``SessionManager.step_batch``) asks
        each ready session which kernels its upcoming decision will
        query, stacks the vectors the sessions' optimizers do not hold
        yet into one predictor call, and hands each optimizer the
        sweeps it asked for to cache.  The hook must be **side-effect
        free** — no lifecycle transitions, no telemetry, no mutation —
        because :meth:`decide` still runs in full afterwards.  A wrong
        or empty answer is always safe: decisions sweep whatever their
        optimizer does not hold.  The default predicts nothing
        (model-free policies).
        """
        return ()

    # ----- migration (the runtime's session snapshot protocol) -------------------

    def snapshot(self) -> Dict[str, Any]:
        """The policy's mutable state as a JSON-able dict.

        Everything a :class:`~repro.runtime.session.SessionRuntime`
        needs to reproduce this policy's future decisions on another
        host, given a policy constructed with the same arguments.
        Stateful policies override this together with :meth:`restore`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support session snapshots"
        )

    def restore(self, payload: Dict[str, Any]) -> None:
        """Rebuild mutable state from a :meth:`snapshot` payload.

        Must be called on a policy constructed with the same arguments
        as the snapshotted one.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support session snapshots"
        )
