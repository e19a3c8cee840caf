"""Replaying kernel-launch traces through the streaming runtime.

:class:`TraceReplayer` turns a :class:`~repro.workloads.traces.format.Trace`
into live :class:`~repro.runtime.events.KernelLaunch` events and drives
them through a :class:`~repro.runtime.manager.SessionManager` built
exactly as the trace header describes (policies, targets, TDP
enforcement).  Replays always run with live instrumentation — the
coverage assertions read the same ``repro_mpc_*`` / ``repro_runtime_*``
counters the observability layer exports, and instrumentation never
affects numerics — and emit one ``replay`` span summarizing the run
next to the per-launch spans.

When the trace carries recorded decisions, the replayer checks its own
outcomes against them **float-for-float**: any drift in configuration,
time, energy, overhead, horizon, or fail-safe provenance is a mismatch.
This is the contract behind ``repro trace replay`` and the differential
harness in ``tests/differential/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.manager import MPCPowerManager
from repro.core.policies import FixedConfigPolicy, PPKPolicy
from repro.hardware.apu import APUModel
from repro.ml.predictors import OraclePredictor, PerfPowerPredictor
from repro.obs import Instrumentation, make_instrumentation
from repro.runtime.events import LaunchOutcome
from repro.runtime.manager import SessionManager
from repro.runtime.session import SessionStats
from repro.sim.policy import PowerPolicy
from repro.sim.simulator import OverheadModel, Simulator
from repro.sim.turbocore import TurboCorePolicy
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec
from repro.workloads.suites import benchmark
from repro.workloads.traces.format import (
    CoverageAssertion,
    PolicySpec,
    RecordedDecision,
    SessionSpec,
    Trace,
    TraceEvent,
    TraceHeader,
)

__all__ = [
    "AssertionResult",
    "ReplayReport",
    "TraceReplayer",
    "build_policy",
    "outcome_decision",
    "stamp_decisions",
    "trace_from_benchmark",
]

#: Fields compared float-for-float between a recorded decision and a
#: replayed outcome (plus ``config`` and the boolean provenance flags).
_CHECKED_FIELDS = (
    "time_s",
    "gpu_energy_j",
    "cpu_energy_j",
    "overhead_time_s",
    "overhead_gpu_energy_j",
    "overhead_cpu_energy_j",
    "horizon",
    "fail_safe",
)


def build_policy(
    spec: PolicySpec,
    kernels: List[KernelSpec],
    *,
    apu: APUModel,
    overhead: OverheadModel,
    obs: Optional[Instrumentation] = None,
    cache_dir: str = ".cache",
) -> PowerPolicy:
    """Instantiate the policy a session spec describes.

    Args:
        spec: The declared policy.
        kernels: The session's distinct kernels (oracle population).
        apu: Ground-truth hardware model of the replay.
        overhead: Decision-overhead model of the replay.
        obs: Instrumentation shared with the hosting session.
        cache_dir: Random Forest cache directory (``forest`` predictor).
    """
    if spec.kind == "turbo":
        return TurboCorePolicy(tdp_w=apu.tdp_w)
    if spec.kind == "fixed":
        assert spec.config is not None  # ensured by PolicySpec.validate
        return FixedConfigPolicy(spec.config)

    predictor: PerfPowerPredictor
    if spec.predictor == "oracle":
        predictor = OraclePredictor(apu, kernels)
    else:
        from repro.ml.predictors import train_predictor

        predictor = train_predictor(apu=apu, cache_dir=cache_dir)
    if spec.kind == "ppk":
        return PPKPolicy(spec.target_throughput, predictor)
    if spec.kind == "mpc":
        return MPCPowerManager(
            spec.target_throughput,
            predictor,
            alpha=spec.alpha,
            adaptive_horizon=spec.adaptive_horizon,
            overhead_model=overhead,
            obs=obs,
        )
    raise ValueError(f"unknown policy kind {spec.kind!r}")


@dataclass(frozen=True)
class AssertionResult:
    """One coverage assertion evaluated against a finished replay."""

    assertion: CoverageAssertion
    measured: float
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.assertion} (measured {self.measured:g})"


@dataclass
class ReplayReport:
    """Everything a finished replay produced.

    Attributes:
        trace: The trace that was replayed.
        outcomes: One :class:`LaunchOutcome` per event, in trace order.
        stats: Per-session statistics, keyed by session id.
        checked: How many events carried a recorded decision and were
            compared.
        mismatches: Human-readable float-for-float drift descriptions
            (empty on a faithful replay).
        assertion_results: Every header assertion, evaluated.
        spans: The replay's observability spans (launch spans, any
            ``health`` transition spans, plus the trailing ``replay``
            summary span), drained and JSON-able.
        registry: The live metrics registry of the replay.
        health: The replay's :class:`~repro.obs.health.HealthMonitor`
            (error ledgers, drift events, per-session health states).
    """

    trace: Trace
    outcomes: List[LaunchOutcome] = field(default_factory=list)
    stats: Dict[str, SessionStats] = field(default_factory=dict)
    checked: int = 0
    mismatches: List[str] = field(default_factory=list)
    assertion_results: List[AssertionResult] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    registry: Any = None
    health: Any = None

    @property
    def passed(self) -> bool:
        """No decision drift and every coverage assertion satisfied."""
        return not self.mismatches and all(
            r.passed for r in self.assertion_results
        )

    def decisions(self, session_id: Optional[str] = None) -> List[RecordedDecision]:
        """The replay's decision sequence as recordable decisions."""
        return [
            outcome_decision(o)
            for o in self.outcomes
            if session_id is None or o.session_id == session_id
        ]

    def metric(self, name: str, session: str = "*") -> float:
        """One coverage metric of this replay (see ASSERTION_METRICS)."""
        if name == "sessions":
            return float(len(self.stats))
        if name == "health_drift_events":
            return float(self.health.drift_events(session)) if self.health else 0.0
        if name == "health_first_drift_decision":
            if self.health is None:
                return float("inf")
            return self.health.first_drift_decision(session)
        if name == "health_final_state":
            return float(self.health.final_state(session)) if self.health else 0.0
        if name == "health_transitions":
            if self.health is None:
                return 0.0
            return float(self.health.transitions_count(session))
        if name == "distinct_configs":
            return float(
                len(
                    {
                        o.record.config
                        for o in self.outcomes
                        if session == "*" or o.session_id == session
                    }
                )
            )
        if name in ("ppk_decisions", "mpc_decisions", "skip_decisions"):
            counter = self.registry.counter("repro_mpc_decisions_total")
            return counter.value(mode=name.split("_")[0])
        if name == "pattern_misses":
            return self.registry.counter("repro_mpc_pattern_misses_total").total()
        if name == "tdp_throttles":
            counter = self.registry.counter("repro_runtime_tdp_throttles_total")
            return counter.total() if session == "*" else counter.value(session=session)
        if name == "fail_safe_total":
            return self.metric("fail_safe_decisions", session) + self.metric(
                "fail_safe_fallbacks", session
            )
        # SessionStats counters.
        if session == "*":
            return float(sum(getattr(s, name) for s in self.stats.values()))
        return float(getattr(self.stats[session], name))


def outcome_decision(outcome: LaunchOutcome) -> RecordedDecision:
    """The recordable decision of one replayed outcome."""
    record = outcome.record
    return RecordedDecision(
        config=record.config,
        time_s=record.time_s,
        gpu_energy_j=record.gpu_energy_j,
        cpu_energy_j=record.cpu_energy_j,
        overhead_time_s=record.overhead_time_s,
        overhead_gpu_energy_j=record.overhead_gpu_energy_j,
        overhead_cpu_energy_j=record.overhead_cpu_energy_j,
        horizon=record.horizon,
        fail_safe=record.fail_safe,
        fallback=outcome.fallback,
    )


class TraceReplayer:
    """Feeds a trace through the runtime event protocol and checks it.

    The replay runs on the standard machine: the default APU, counter
    synthesizer and decision-overhead models.

    Args:
        trace: The trace to replay (validated before replaying).
        check: Compare outcomes against recorded decisions, when the
            trace carries them.
        cache_dir: Random Forest cache directory for ``forest``
            predictor specs.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        check: bool = True,
        cache_dir: str = ".cache",
    ) -> None:
        self.trace = trace.ensure_valid()
        self.apu = APUModel()
        self.counters = CounterSynthesizer()
        self.overhead = OverheadModel()
        self.check = check
        self.cache_dir = cache_dir

    def _build_manager(self, obs: Instrumentation) -> SessionManager:
        manager = SessionManager(
            apu=self.apu,
            counters=self.counters,
            overhead=self.overhead,
            enforce_tdp=self.trace.header.enforce_tdp,
            isolate_faults=True,
            obs=obs,
        )
        for spec in self.trace.header.sessions:
            policy = build_policy(
                spec.policy,
                self.trace.unique_kernels(spec.session_id),
                apu=self.apu,
                overhead=self.overhead,
                obs=obs,
                cache_dir=self.cache_dir,
            )
            manager.add_session(
                spec.session_id,
                policy,
                app_name=spec.app_name,
                charge_overhead=spec.charge_overhead,
            )
        return manager

    def _compare(
        self, position: int, event: TraceEvent, outcome: LaunchOutcome
    ) -> List[str]:
        recorded = event.decision
        assert recorded is not None
        replayed = outcome_decision(outcome)
        where = (
            f"event {position} (session {event.session!r}, "
            f"index {event.index}, kernel {event.spec.key!r})"
        )
        drift: List[str] = []
        if replayed.config != recorded.config:
            drift.append(
                f"{where}: config {replayed.config} != recorded {recorded.config}"
            )
        for name in _CHECKED_FIELDS:
            got, want = getattr(replayed, name), getattr(recorded, name)
            if got != want:
                drift.append(f"{where}: {name} {got!r} != recorded {want!r}")
        if replayed.fallback != recorded.fallback:
            drift.append(
                f"{where}: fallback {replayed.fallback} != recorded "
                f"{recorded.fallback}"
            )
        return drift

    def replay(self) -> ReplayReport:
        """Run the whole trace; returns the full report.

        Each replay runs under its own live instrumentation (with a
        model-health monitor, for the ``health_*`` metrics), so
        replaying twice reports the same numbers twice.
        """
        obs = make_instrumentation(health=True)
        manager = self._build_manager(obs)
        report = ReplayReport(
            trace=self.trace,
            registry=obs.registry,
            health=obs.health,
        )
        for position, event in enumerate(self.trace.events):
            outcome = manager.dispatch(event.as_launch())
            report.outcomes.append(outcome)
            if self.check and event.decision is not None:
                report.checked += 1
                report.mismatches.extend(self._compare(position, event, outcome))
        report.stats = {
            sid: manager.session(sid).stats for sid in manager.session_ids()
        }

        for assertion in self.trace.header.assertions:
            measured = report.metric(assertion.metric, assertion.session)
            report.assertion_results.append(
                AssertionResult(
                    assertion=assertion,
                    measured=measured,
                    passed=assertion.check(measured),
                )
            )

        sim_time = sum(
            manager.session(sid).sim_time_s for sid in manager.session_ids()
        )
        span = obs.tracer.start_span(
            "replay",
            at=0.0,
            trace=self.trace.header.name,
            source=self.trace.header.source,
            sessions=len(self.trace.header.sessions),
            launches=len(report.outcomes),
            checked=report.checked,
            mismatches=len(report.mismatches),
            assertions_failed=sum(
                1 for r in report.assertion_results if not r.passed
            ),
        )
        obs.tracer.end_span(span, at=sim_time)
        report.spans = obs.tracer.drain()
        return report


def stamp_decisions(trace: Trace, **replay_kwargs: Any) -> Trace:
    """Replay a trace once and attach its decisions to every event.

    The result is a *checking* trace: replaying it again (same models,
    same code) must reproduce every decision float-for-float.
    """
    report = TraceReplayer(trace, check=False, **replay_kwargs).replay()
    return trace.with_decisions([outcome_decision(o) for o in report.outcomes])


def trace_from_benchmark(
    name: str,
    *,
    policy: str = "mpc",
    invocations: int = 2,
    alpha: float = 0.05,
    adaptive_horizon: bool = True,
    predictor: str = "oracle",
) -> Trace:
    """Capture a Table-IV benchmark run as an (unstamped) trace.

    The performance target is computed once here — a Turbo Core run of
    the benchmark on the standard simulator — and stored explicitly in
    the policy spec, so replays never recompute it.

    Args:
        name: Benchmark name (see ``repro list``).
        policy: Managing policy kind (``mpc``, ``ppk``, ``turbo``).
        invocations: Back-to-back invocations to trace (MPC needs two:
            profiling, then steady state).
        alpha: Adaptive-horizon performance bound (MPC).
        adaptive_horizon: Disable for the full-horizon ablation (MPC).
        predictor: ``oracle`` or ``forest``.
    """
    if invocations <= 0:
        raise ValueError("invocations must be positive")
    app = benchmark(name)
    sim = Simulator()
    turbo = sim.run(app, TurboCorePolicy(tdp_w=sim.apu.tdp_w))
    target = turbo.instructions / turbo.kernel_time_s

    session_id = app.name
    policy_spec = PolicySpec(
        kind=policy,
        target_throughput=target,
        alpha=alpha,
        adaptive_horizon=adaptive_horizon,
        predictor=predictor,
    )
    events = []
    for _ in range(invocations):
        for index, spec in enumerate(app.kernels):
            events.append(TraceEvent(index=index, session=session_id, spec=spec))
    header = TraceHeader(
        name=f"{name}-{policy}",
        source=f"record:{name}",
        sessions=(
            SessionSpec(
                session_id=session_id, app_name=app.name, policy=policy_spec
            ),
        ),
    )
    return Trace(header=header, events=tuple(events)).ensure_valid()
