"""The session runtime: a fault-isolating host for one policy.

:class:`SessionRuntime` owns the online control loop the paper's
framework runs at every kernel-launch boundary — the sequence that used
to be hard-wired inside ``Simulator.run``:

1. **decide** — ask the policy for a configuration (fault-isolated:
   a predictor/optimizer exception degrades to the fail-safe
   configuration instead of killing the session),
2. **throttle** — optionally clamp the choice into the TDP the way the
   part's power controller would,
3. **charge overhead** — convert the decision's model evaluations into
   host-CPU time and energy,
4. **execute + observe** — run the kernel on the ground-truth APU model
   and feed the resulting telemetry back to the policy.

The loop is driver-agnostic: :meth:`run` replays an application offline
(what :class:`~repro.sim.simulator.Simulator` now delegates to),
:meth:`process` takes one :class:`~repro.runtime.events.KernelLaunch`
at a time, and :class:`~repro.runtime.manager.SessionManager`
interleaves many sessions.  All three produce numerically identical
traces.

Sessions are migratable: :meth:`snapshot` captures the policy's mutable
state (and the session's position) as a JSON-able dict, and
:meth:`restore` rebuilds it on a freshly constructed session, so a
session can move across engine workers or fleet nodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.hardware.apu import PART_TABLE, APUModel
from repro.hardware.config import FAILSAFE_CONFIG, HardwareConfig, Knob
from repro.obs import Instrumentation, or_noop
from repro.runtime.events import KernelLaunch, LaunchOutcome, launch_events
from repro.sim.policy import Decision, Observation, PowerPolicy
from repro.sim.simulator import MANAGER_CONFIG, OverheadModel
from repro.sim.trace import LaunchRecord, RunResult
from repro.workloads.app import Application
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec

__all__ = [
    "RECENT_ERRORS_LIMIT",
    "SESSION_SNAPSHOT_SCHEMA",
    "SessionRuntime",
    "SessionStats",
    "invocation_pair",
    "throttle_to_cap",
]

#: Bump when the session snapshot layout changes (2: the stats lost
#: their ``recent_errors`` capacity field).
SESSION_SNAPSHOT_SCHEMA = 2

#: How many isolated-fault exception reprs a session retains.
RECENT_ERRORS_LIMIT = 8

#: The throttling hardware sees every DPM state, not just the
#: software-searched subset: the space of the APU model's table of
#: every configuration the part can run.
_THROTTLE_SPACE = PART_TABLE.space


def throttle_to_cap(apu: APUModel, spec: KernelSpec,
                    config: HardwareConfig, cap_w: float) -> HardwareConfig:
    """Clamp a configuration under a chip power cap the way the part would.

    Mirrors Turbo Core's shedding order: CPU P-states first, then the
    GPU DPM state.  Returns the first configuration along that path
    whose chip power fits under ``cap_w``; if none fits, the lowest one.
    With ``cap_w == apu.tdp_w`` this is exactly the TDP throttle the
    part's power controller applies; a *node power budget* (see
    ``repro.fleet``) enforces itself by passing a tighter cap through
    the same path.
    """
    current = config
    while apu.kernel_power(spec, current).total_w > cap_w:
        lowered = _THROTTLE_SPACE.step(current, Knob.CPU, -1)
        if lowered is None:
            lowered = _THROTTLE_SPACE.step(current, Knob.GPU, -1)
        if lowered is None:
            break
        current = lowered
    return current


@dataclass
class SessionStats:
    """Structured per-session counters, updated on every launch.

    Attributes:
        runs: Application invocations started (``begin_run`` calls).
        launches: Kernel launches processed across all runs.
        model_evaluations: Predictor queries charged to the session.
        fail_safe_decisions: Launches the *policy itself* sent to the
            fail-safe configuration (no admissible configuration met
            the target).
        fail_safe_fallbacks: Launches where the policy *raised* and the
            runtime degraded to the fail-safe configuration.
        observe_failures: Telemetry deliveries the policy raised on
            (swallowed; the launch record is unaffected).
        instructions: Total instructions executed across all launches
            (``instructions / kernel_time_s`` is the session's
            aggregate throughput, the signal the fleet's budget
            allocator weighs demand by).
        kernel_time_s: Total kernel execution time.
        overhead_time_s: Total optimizer overhead time charged.
        energy_j: Total chip energy including overheads.
        last_error: Formatted ``Type: message`` of the most recent
            isolated policy fault, if any.
        recent_errors: Ring buffer of the last
            :data:`RECENT_ERRORS_LIMIT` isolated-fault exception reprs,
            oldest first.
        sources: How many sessions' worth of data this object holds
            (grows under :meth:`merge`, so aggregates keep provenance).
    """

    runs: int = 0
    launches: int = 0
    model_evaluations: int = 0
    fail_safe_decisions: int = 0
    fail_safe_fallbacks: int = 0
    observe_failures: int = 0
    instructions: float = 0.0
    kernel_time_s: float = 0.0
    overhead_time_s: float = 0.0
    energy_j: float = 0.0
    last_error: Optional[str] = None
    recent_errors: List[str] = field(default_factory=list)
    sources: int = 1

    def record_error(self, exc: BaseException) -> None:
        """Retain an isolated policy fault (formatted + ring buffer)."""
        self.last_error = f"{type(exc).__name__}: {exc}"
        self.recent_errors.append(repr(exc))
        if len(self.recent_errors) > RECENT_ERRORS_LIMIT:
            del self.recent_errors[: len(self.recent_errors) - RECENT_ERRORS_LIMIT]

    def merge(self, other: "SessionStats") -> None:
        """Accumulate another session's stats (e.g. across workers).

        Counters and totals add; ``sources`` adds so the merged object
        reports how many sessions contributed; the error ring keeps the
        newest :data:`RECENT_ERRORS_LIMIT` entries across both.
        """
        self.runs += other.runs
        self.launches += other.launches
        self.model_evaluations += other.model_evaluations
        self.fail_safe_decisions += other.fail_safe_decisions
        self.fail_safe_fallbacks += other.fail_safe_fallbacks
        self.observe_failures += other.observe_failures
        self.instructions += other.instructions
        self.kernel_time_s += other.kernel_time_s
        self.overhead_time_s += other.overhead_time_s
        self.energy_j += other.energy_j
        if other.last_error is not None:
            self.last_error = other.last_error
        self.recent_errors = (
            self.recent_errors + other.recent_errors
        )[-RECENT_ERRORS_LIMIT:]
        self.sources += other.sources

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (used by session snapshots)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionStats":
        """Rebuild from :meth:`as_dict` output."""
        return cls(**payload)

    def format(self) -> str:
        """One-line summary for reports (``repro trace replay``)."""
        line = (
            f"{self.runs} run(s), {self.launches} launches, "
            f"{self.model_evaluations} model evals; "
            f"fail-safe {self.fail_safe_decisions} by policy / "
            f"{self.fail_safe_fallbacks} by fault degradation, "
            f"{self.observe_failures} observe faults; "
            f"{self.kernel_time_s * 1e3:.1f} ms kernels + "
            f"{self.overhead_time_s * 1e3:.2f} ms overhead, "
            f"{self.energy_j:.2f} J"
        )
        if self.sources > 1:
            line += f" [merged from {self.sources} session(s)]"
        if self.recent_errors:
            newest_first = "; ".join(reversed(self.recent_errors))
            line += (
                f"; recent faults (last {RECENT_ERRORS_LIMIT}): "
                f"{newest_first}"
            )
        return line


class SessionRuntime:
    """Hosts one policy against a stream of kernel-launch events.

    Args:
        policy: The power-management policy to host.  Its state
            persists across runs of the session, modelling repeated
            application invocations under one resident framework.
        apu: Ground-truth hardware model.
        counters: Synthesizer producing each launch's Table-III
            counters for the policy.
        overhead: Model converting decisions into optimizer overhead.
        manager_config: Hardware configuration the optimizer runs at.
        cpu_phase_s: CPU-phase duration that can hide optimizer time
            from the wall clock (Section VI-E); energy is still charged.
        enforce_tdp: Throttle over-TDP configurations before executing.
        power_budget_w: Optional node power budget (watts).  When set,
            configurations are throttled under
            ``min(budget, TDP if enforce_tdp)`` through the same
            shedding path as the TDP — this is how a fleet node's
            apportioned budget (``repro.fleet``) reaches every hosted
            policy.  ``None`` (the default) leaves behaviour exactly
            as before: TDP-only when ``enforce_tdp``, unconstrained
            otherwise.  Host property, not migratable session state:
            a restored session takes the *new* host's budget.
        isolate_faults: When set (the streaming default), a policy
            exception inside ``decide`` degrades the launch to the
            fail-safe configuration and increments
            ``stats.fail_safe_fallbacks`` instead of propagating; an
            exception inside ``observe`` is swallowed and counted.
            ``Simulator`` hosts with this off to preserve the offline
            harness's fail-fast semantics.  A faulted decision runs at
            :data:`~repro.hardware.config.FAILSAFE_CONFIG`.
        session_id: Routing key of this session in a manager.
        app_name: Default application name for streamed runs (offline
            replay takes it from the application itself).
        charge_overhead: Whether to convert each decision's model
            evaluations into time and energy overheads, for every run
            of the session (the paper's idealized studies switch this
            off).
        obs: Observability hooks (``repro.obs``).  Defaults to the
            shared no-op instrumentation; when live, the runtime emits
            one ``launch`` span per processed event (stamped with the
            session's *simulated* time, never the wall clock) plus
            lifecycle/fault metrics, and feeds each finished launch
            span to ``obs.health`` (the model-health monitor, when
            installed).  Share the same object with the hosted policy
            so its decision annotations land on the same spans.
    """

    def __init__(
        self,
        policy: PowerPolicy,
        apu: Optional[APUModel] = None,
        counters: Optional[CounterSynthesizer] = None,
        overhead: Optional[OverheadModel] = None,
        manager_config: HardwareConfig = MANAGER_CONFIG,
        cpu_phase_s: float = 0.0,
        enforce_tdp: bool = False,
        isolate_faults: bool = True,
        session_id: str = "",
        app_name: str = "",
        charge_overhead: bool = True,
        obs: Optional[Instrumentation] = None,
        power_budget_w: Optional[float] = None,
    ) -> None:
        if cpu_phase_s < 0:
            raise ValueError("cpu_phase_s must be non-negative")
        if power_budget_w is not None and power_budget_w <= 0:
            raise ValueError("power_budget_w must be positive")
        self.obs = or_noop(obs)
        self.policy = policy
        self.apu = apu if apu is not None else APUModel()
        self.counters = counters if counters is not None else CounterSynthesizer()
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.manager_config = manager_config
        self.cpu_phase_s = cpu_phase_s
        self.enforce_tdp = enforce_tdp
        self.power_budget_w = power_budget_w
        self.isolate_faults = isolate_faults
        self.session_id = session_id
        self.app_name = app_name
        self.charge_overhead = charge_overhead
        self.stats = SessionStats()
        self._result: Optional[RunResult] = None
        self._m_lock = self.obs.registry.lock
        self._bind_series()

    def _bind_series(self) -> None:
        """Bind the per-launch series to the current session id.

        Pre-bound handles skip the registry lookup and label
        canonicalization on every launch.  TDP throttles and fail-safe
        causes bind theirs at first use, when the labelled API would
        register them, so snapshots are unchanged; faults keep the
        labelled API.  Binding registers nothing, and every handle is a
        no-op under NOOP obs.  :meth:`restore` rebinds, since it takes
        the snapshot's session id.
        """
        registry = self.obs.registry
        session_id, policy = self.session_id, self.policy.name
        self._m_runs = registry.counter(
            "repro_runtime_runs_total", "Application invocations started"
        ).labelled(session=session_id, policy=policy)
        self._m_launches = registry.counter(
            "repro_runtime_launches_total", "Kernel launches processed"
        ).labelled(session=session_id, policy=policy)
        self._m_kernel_seconds = registry.histogram(
            "repro_runtime_kernel_seconds", "Per-launch kernel execution time"
        ).labelled(session=session_id)
        self._m_overhead_seconds = registry.histogram(
            "repro_runtime_overhead_seconds",
            "Per-launch optimizer overhead time",
        ).labelled(session=session_id)
        self._m_throttles: Any = None
        self._m_fail_safe: Dict[str, Any] = {}

    # ----- run lifecycle --------------------------------------------------------

    @property
    def result(self) -> Optional[RunResult]:
        """Trace of the current (or just-finished) run, if any."""
        return self._result

    def begin_run(self, app_name: Optional[str] = None) -> None:
        """Start a new application invocation.

        Resets the policy's per-run cursors and opens a fresh trace;
        knowledge the policy carries *across* runs (pattern store,
        frozen profile) is preserved, exactly as under offline replay.
        """
        if app_name is not None:
            self.app_name = app_name
        self.policy.begin_run()
        self.stats.runs += 1
        self._m_runs.inc()
        self._result = RunResult(
            app_name=self.app_name, policy_name=self.policy.name
        )

    def _next_index(self) -> Optional[int]:
        if self._result is None:
            return None
        return self._result.base_index + len(self._result.launches)

    @property
    def effective_cap_w(self) -> Optional[float]:
        """The power cap launches are throttled under, if any.

        The tighter of the part's TDP (when ``enforce_tdp``) and the
        node budget (when set); ``None`` when neither constraint is
        active.
        """
        caps = []
        if self.enforce_tdp:
            caps.append(self.apu.tdp_w)
        if self.power_budget_w is not None:
            caps.append(self.power_budget_w)
        if not caps:
            return None
        return min(caps)

    @property
    def sim_time_s(self) -> float:
        """The session's simulated clock: kernel time plus overhead.

        Used to timestamp trace spans so traces are deterministic
        functions of the workload, independent of host speed.
        """
        return self.stats.kernel_time_s + self.stats.overhead_time_s

    # ----- the control loop ------------------------------------------------------

    def prefetch_counters(self, event: KernelLaunch):
        """Counter vectors the policy expects to sweep for ``event``.

        The batched dispatch path (``SessionManager.step_batch``) calls
        this before :meth:`process` to stack many sessions' predictor
        sweeps into one call.  Events that start a new run (or arrive
        out of order) predict nothing: ``process`` will change policy
        state (``begin_run``) before deciding, so any guess made now
        could be wrong — the decision then sweeps what its optimizer
        does not hold.  Side-effect free.
        """
        expected = self._next_index()
        if expected is None or (event.index == 0 and expected > 0):
            return ()
        if event.index != expected:
            return ()
        return tuple(self.policy.prefetch_counters(event.index))

    def process(self, event: KernelLaunch) -> LaunchOutcome:
        """Execute one kernel-launch event end to end.

        An ``index == 0`` event starts a new run automatically (after
        at least one launch has been processed), so multi-invocation
        streams need no explicit ``begin_run`` calls.  Out-of-order
        events are rejected before the policy is consulted.

        Returns:
            The typed outcome; its record is also appended to
            :attr:`result`.
        """
        expected = self._next_index()
        if expected is None or (event.index == 0 and expected > 0):
            self.begin_run()
            expected = 0
        if event.index != expected:
            raise ValueError(
                f"out-of-order launch event: got index {event.index}, "
                f"expected {expected}"
            )
        tracer = self.obs.tracer
        registry = self.obs.registry
        assert self._result is not None
        span = tracer.start_span(
            "launch",
            at=self.sim_time_s,
            session=self.session_id,
            app=self._result.app_name,
            policy=self._result.policy_name,
            index=event.index,
            kernel=event.spec.key,
        )

        # 1. decide (fault-isolated).
        fallback = False
        try:
            decision = self.policy.decide(event.index)
        except Exception as exc:
            if not self.isolate_faults:
                tracer.end_span(span, at=self.sim_time_s)
                raise
            self.stats.fail_safe_fallbacks += 1
            self.stats.record_error(exc)
            span.annotate("error", repr(exc))
            registry.counter(
                "repro_runtime_faults_total",
                "Isolated policy faults, by failing phase",
            ).inc(session=self.session_id, phase="decide")
            decision = Decision(config=FAILSAFE_CONFIG, fail_safe=True)
            fallback = True

        # 2. throttle under the active power cap (TDP and/or node
        # budget), as the part's power controller would.
        cap_w = self.effective_cap_w
        if cap_w is not None:
            throttled = throttle_to_cap(self.apu, event.spec,
                                        decision.config, cap_w)
            if throttled != decision.config:
                decision = replace(decision, config=throttled)
                span.annotate("tdp_throttled", True)
                if self._m_throttles is None:
                    self._m_throttles = registry.counter(
                        "repro_runtime_tdp_throttles_total",
                        "Launches whose configuration was throttled into "
                        "the active power cap (TDP or node budget)",
                    ).labelled(session=self.session_id)
                self._m_throttles.inc()

        # 3. charge the decision's optimizer overhead.
        overhead_time = 0.0
        overhead_gpu_j = 0.0
        overhead_cpu_j = 0.0
        if self.charge_overhead:
            compute_time = self.overhead.decision_time_s(decision)
            overhead_time = max(0.0, compute_time - self.cpu_phase_s)
            if compute_time > 0.0:
                # Energy is charged for the full optimizer runtime even
                # when a CPU phase hides it from the wall clock.
                manager = self.apu.manager_measurement(
                    compute_time, self.manager_config
                )
                overhead_gpu_j = manager.gpu_energy_j
                overhead_cpu_j = manager.cpu_energy_j

        # 4. execute on the ground truth and feed telemetry back.
        measurement = self.apu.execute(event.spec, decision.config)
        counters = self.counters.observe(event.spec, sequence=event.index)
        try:
            self.policy.observe(
                Observation(
                    index=event.index,
                    config=decision.config,
                    counters=counters,
                    measurement=measurement,
                    instructions=event.spec.instructions,
                )
            )
        except Exception as exc:
            if not self.isolate_faults:
                tracer.end_span(span, at=self.sim_time_s)
                raise
            self.stats.observe_failures += 1
            self.stats.record_error(exc)
            span.annotate("error", repr(exc))
            registry.counter(
                "repro_runtime_faults_total",
                "Isolated policy faults, by failing phase",
            ).inc(session=self.session_id, phase="observe")

        record = LaunchRecord(
            index=event.index,
            kernel_key=event.spec.key,
            config=decision.config,
            time_s=measurement.time_s,
            gpu_energy_j=measurement.gpu_energy_j,
            cpu_energy_j=measurement.cpu_energy_j,
            instructions=event.spec.instructions,
            overhead_time_s=overhead_time,
            overhead_gpu_energy_j=overhead_gpu_j,
            overhead_cpu_energy_j=overhead_cpu_j,
            horizon=decision.horizon,
            fail_safe=decision.fail_safe,
        )
        assert self._result is not None
        self._result.append(record)

        self.stats.launches += 1
        self.stats.model_evaluations += decision.model_evaluations
        if decision.fail_safe and not fallback:
            self.stats.fail_safe_decisions += 1
        self.stats.instructions += record.instructions
        self.stats.kernel_time_s += record.time_s
        self.stats.overhead_time_s += overhead_time
        self.stats.energy_j += record.energy_j + record.overhead_energy_j

        if tracer.enabled:
            # Direct writes into the span's attribute dict: eleven
            # ``span.annotate`` calls per launch are pure call overhead
            # on the hot path.  The null span shares one class-level
            # dict, so the disabled path must not reach these stores.
            attrs = span.attributes
            attrs["config"] = str(decision.config)
            attrs["horizon"] = decision.horizon
            attrs["model_evaluations"] = decision.model_evaluations
            attrs["fail_safe"] = decision.fail_safe
            attrs["fallback"] = fallback
            attrs["time_s"] = record.time_s
            attrs["observed_ips"] = record.instructions / record.time_s
            attrs["observed_power_w"] = record.energy_j / record.time_s
            attrs["energy_j"] = record.energy_j
            attrs["overhead_time_s"] = overhead_time
            attrs["overhead_energy_j"] = record.overhead_energy_j
        # The health monitor (a no-op unless installed) reads the
        # predicted-vs-observed pairs off the finished span to update
        # error ledgers and drift detectors; handing it the attribute
        # dict directly skips re-parsing the payload envelope.
        tracer.end_span(span, at=self.sim_time_s)
        self.obs.health.observe_launch(span.attributes, at=self.sim_time_s)

        if registry.enabled:
            if decision.fail_safe:
                # Outside the bulk lock hold below: the registry lock is
                # not reentrant.
                cause = "fault" if fallback else "policy"
                fail_safe = self._m_fail_safe.get(cause)
                if fail_safe is None:
                    fail_safe = self._m_fail_safe[cause] = registry.counter(
                        "repro_runtime_fail_safe_total",
                        "Fail-safe launches, by cause (policy decision vs "
                        "fault degradation)",
                    ).labelled(session=self.session_id, cause=cause)
                fail_safe.inc()
            with self._m_lock:
                self._m_launches.inc_unlocked()
                self._m_kernel_seconds.observe_unlocked(record.time_s)
                if overhead_time > 0.0:
                    self._m_overhead_seconds.observe_unlocked(overhead_time)

        return LaunchOutcome(
            session_id=self.session_id,
            app_name=self._result.app_name,
            policy_name=self._result.policy_name,
            record=record,
            fallback=fallback,
        )

    # ----- drivers ---------------------------------------------------------------

    def run(self, app: Application) -> RunResult:
        """Offline replay: one full invocation of ``app``."""
        self.begin_run(app.name)
        for event in launch_events(app, self.session_id):
            self.process(event)
        assert self._result is not None
        return self._result

    # ----- migration -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The session's migratable state as a JSON-able dict.

        Captures the policy's mutable state (via
        :meth:`~repro.sim.policy.PowerPolicy.snapshot`), the session
        counters, and the position within the current run.  The trace
        of an in-flight run is *not* captured: a resumed session's
        :attr:`result` covers post-resume launches only (with their
        original indices).
        """
        next_index = self._next_index()
        return {
            "schema": SESSION_SNAPSHOT_SCHEMA,
            "session_id": self.session_id,
            "app_name": self._result.app_name if self._result else self.app_name,
            "charge_overhead": self.charge_overhead,
            "policy": {
                "name": self.policy.name,
                "state": self.policy.snapshot(),
            },
            "stats": self.stats.as_dict(),
            "next_index": next_index,
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Rebuild a snapshotted session on this freshly built host.

        The hosted policy must have been constructed with the same
        arguments as the snapshotted one; only mutable state migrates.
        """
        if payload.get("schema") != SESSION_SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported session snapshot schema: {payload.get('schema')!r}"
            )
        if payload["policy"]["name"] != self.policy.name:
            raise ValueError(
                f"snapshot is for policy {payload['policy']['name']!r}, "
                f"host runs {self.policy.name!r}"
            )
        self.session_id = payload["session_id"]
        self._bind_series()
        self.app_name = payload["app_name"]
        self.charge_overhead = payload["charge_overhead"]
        self.policy.restore(payload["policy"]["state"])
        self.stats = SessionStats.from_dict(payload["stats"])
        next_index = payload["next_index"]
        if next_index is None:
            self._result = None
        else:
            # Resume mid-run: the trace continues at the snapshotted
            # position; pre-snapshot records live with the old host.
            self._result = RunResult(
                app_name=self.app_name,
                policy_name=self.policy.name,
                base_index=next_index,
            )


def invocation_pair(session: SessionRuntime,
                    app: Application) -> Tuple[RunResult, RunResult]:
    """Profiling invocation followed by the steady-state invocation.

    The canonical two-run MPC protocol (profile, then optimize) used by
    the experiment variants; overheads are charged as the session was
    built to charge them.

    Returns:
        ``(first, steady)`` run traces.
    """
    return session.run(app), session.run(app)
