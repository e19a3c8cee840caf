"""The execution simulator: replays applications under a policy.

This is the harness the paper builds from its captured hardware data
("In order to simulate our approach as well as competing schemes, we
captured performance and power data ... for 336 APU hardware
configurations", Section V): every kernel launch is executed on the
ground-truth APU model at the configuration the policy chose, and the
policy is charged for its own decision-making.

Overhead accounting follows the paper's worst-case assumption: kernels
arrive back-to-back, so optimizer time is never hidden by CPU phases.
The optimizer runs on the host CPU at the framework's configuration
([P5, NB0, DPM0, 2 CUs] in the paper) while the GPU idles and leaks;
both costs are charged to the run.

Since the streaming-runtime refactor the simulator is a thin *offline
driver* over :class:`~repro.runtime.session.SessionRuntime`: each
``run`` hosts the policy in a fresh session built from this simulator's
hardware components and replays the application's launch-event stream
through it.  The decide / throttle / charge-overhead / observe sequence
lives in the runtime layer, so offline replay, streaming, and
multi-session hosting are numerically identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.hardware.apu import APUModel
from repro.hardware.config import HardwareConfig
from repro.sim.policy import Decision, PowerPolicy
from repro.sim.trace import RunResult
from repro.workloads.app import Application
from repro.workloads.counters import CounterSynthesizer

if TYPE_CHECKING:
    from repro.obs import Instrumentation
    from repro.runtime.session import SessionRuntime

__all__ = ["OverheadModel", "Simulator"]

#: Hardware configuration the MPC framework itself runs at (Section V).
MANAGER_CONFIG = HardwareConfig(cpu="P5", nb="NB0", gpu="DPM0", cu=2)


@dataclass(frozen=True)
class OverheadModel:
    """Converts a policy's work into host-CPU wall-clock time.

    Attributes:
        seconds_per_evaluation: Cost of one performance/power-model
            query (a Random Forest inference plus bookkeeping).
        fixed_seconds: Fixed per-decision cost (sampling counters,
            updating the pattern store, applying DVFS states).
    """

    seconds_per_evaluation: float = 2e-6
    fixed_seconds: float = 1e-5

    def decision_time_s(self, decision: Decision) -> float:
        """Wall-clock seconds consumed by one decision."""
        if decision.model_evaluations < 0:
            raise ValueError("model_evaluations must be non-negative")
        if decision.model_evaluations == 0:
            return 0.0
        return self.fixed_seconds + self.seconds_per_evaluation * decision.model_evaluations


class Simulator:
    """Replays an application's kernel launches under a policy.

    Args:
        apu: Ground-truth hardware model.
        counters: Synthesizer producing each launch's Table-III
            counters for the policy.
        overhead: Model converting decisions into optimizer overhead
            (idealized studies that exclude overheads build their
            session or run with ``charge_overhead=False``).
        manager_config: Hardware configuration the optimizer runs at.
        cpu_phase_s: Duration of the CPU phase preceding each kernel
            launch during which an idle CPU can run the optimizer
            (Section VI-E: "GPGPU application kernels may be separated
            by CPU phases with an available CPU, which can hide the MPC
            overheads").  Optimizer time up to this amount is hidden
            from the wall clock; its energy is still charged.  The
            paper's default (and ours) is the worst case: zero.
        enforce_tdp: When set, the hardware throttles configurations
            whose chip power would exceed the TDP — CPU states shed
            first, then the GPU DPM state — before executing, the way
            the real part's power controller would.  Off by default:
            the modelled workloads stay inside the 95 W envelope, as on
            the paper's testbed.
    """

    def __init__(
        self,
        apu: Optional[APUModel] = None,
        counters: Optional[CounterSynthesizer] = None,
        overhead: Optional[OverheadModel] = None,
        manager_config: HardwareConfig = MANAGER_CONFIG,
        cpu_phase_s: float = 0.0,
        enforce_tdp: bool = False,
    ) -> None:
        if cpu_phase_s < 0:
            raise ValueError("cpu_phase_s must be non-negative")
        self.apu = apu if apu is not None else APUModel()
        self.counters = counters if counters is not None else CounterSynthesizer()
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.manager_config = manager_config
        self.cpu_phase_s = cpu_phase_s
        self.enforce_tdp = enforce_tdp

    def session(self, policy: PowerPolicy, *,
                isolate_faults: bool = False,
                session_id: str = "",
                app_name: str = "",
                charge_overhead: bool = True,
                obs: Optional["Instrumentation"] = None) -> "SessionRuntime":
        """A session runtime hosting ``policy`` on this simulator's models.

        Fault isolation is *off* by default so the offline harness
        keeps its fail-fast semantics (a buggy policy raises instead of
        silently degrading to fail-safe); streaming drivers pass
        ``isolate_faults=True``.  ``charge_overhead`` holds for every
        run of the session.

        ``obs`` is deliberately a per-call argument rather than
        simulator state: the simulator is part of the experiment
        engine's fingerprinted cache-key material, so instrumentation
        must never live on it.
        """
        # Imported lazily: the runtime layer is built on this module's
        # primitives (OverheadModel, the policy/trace protocol), so a
        # module-level import here would be circular.
        from repro.runtime.session import SessionRuntime

        return SessionRuntime(
            policy=policy,
            apu=self.apu,
            counters=self.counters,
            overhead=self.overhead,
            manager_config=self.manager_config,
            cpu_phase_s=self.cpu_phase_s,
            enforce_tdp=self.enforce_tdp,
            isolate_faults=isolate_faults,
            session_id=session_id,
            app_name=app_name,
            charge_overhead=charge_overhead,
            obs=obs,
        )

    def run(self, app: Application, policy: PowerPolicy, *,
            charge_overhead: bool = True,
            obs: Optional["Instrumentation"] = None) -> RunResult:
        """Run one invocation of ``app`` under ``policy``.

        Args:
            app: The application to execute.
            policy: The power-management policy; its state persists
                across calls, modelling repeated application
                invocations under one resident framework.
            charge_overhead: Whether to convert the policy's model
                evaluations into time/energy overheads (the paper's
                idealized studies switch this off).
            obs: Optional instrumentation for the hosting session
                (per-call; see :meth:`session`).

        Returns:
            The per-launch trace and aggregates for this invocation.
        """
        return self.session(
            policy, charge_overhead=charge_overhead, obs=obs
        ).run(app)
