"""The MPC-based power manager (Figure 6 of the paper).

:class:`MPCPowerManager` composes the four architectural blocks:

* the **optimizer** (greedy hill climbing + search-order window,
  :mod:`~repro.core.optimizer`),
* the **kernel pattern extractor** (:mod:`~repro.core.pattern`),
* the **performance and power predictor** (:mod:`~repro.ml.predictors`),
* the **adaptive horizon generator** (:mod:`~repro.core.horizon`),

plus the **performance tracker** (:mod:`~repro.core.tracker`) that feeds
headroom back into the optimization.

Lifecycle, exactly as in the paper and now explicit as a validated
:class:`~repro.runtime.lifecycle.PolicyLifecycle` state machine: on an
application's *first* invocation the manager has no stored knowledge —
it is ``PROFILING``, running PPK (the very first kernel at fail-safe)
while the extractor records the execution pattern and the manager
measures its own optimization cost (T_PPK).  When the first invocation
ends, the profile is frozen into a search order and horizon statistics
(``FROZEN``); the first decision afterwards moves the manager to ``MPC``
and every later invocation runs true MPC with receding, adaptively
bounded horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.horizon import AdaptiveHorizonGenerator
from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.core.pattern import KernelPatternExtractor, KernelRecord
from repro.core.search_order import SearchOrder, build_search_order
from repro.core.tracker import PerformanceTracker
from repro.hardware.config import ConfigSpace, HardwareConfig, default_space
from repro.ml.predictors import PerfPowerPredictor
from repro.obs import Instrumentation, or_noop
from repro.runtime.lifecycle import PolicyLifecycle, PolicyState
from repro.sim.policy import Decision, Observation, PowerPolicy
from repro.sim.simulator import OverheadModel
from repro.workloads.counters import CounterVector

__all__ = ["MPCPowerManager"]

#: Bump when the manager snapshot layout changes.
MANAGER_SNAPSHOT_SCHEMA = 1


@dataclass
class _ProfiledStats:
    """Statistics frozen at the end of the profiling invocation."""

    search_order: SearchOrder
    num_kernels: int
    mean_prefix_length: float
    ppk_overhead_s: float
    baseline_total_time_s: float


class MPCPowerManager(PowerPolicy):
    """Future-aware kernel-level DVFS manager using MPC.

    Args:
        target_throughput: Performance target — the baseline (Turbo
            Core) application throughput I_total/T_total.  Must be a
            positive, finite rate.
        predictor: Performance/power model (Random Forest in the real
            system; the oracle or synthetic-error models in studies).
        space: Searchable configuration space.
        alpha: Total performance-penalty bound for the adaptive horizon
            (the paper evaluates 0.05).  Must be non-negative and
            finite; ``alpha == 0`` is the zero-overhead-budget ablation.
        adaptive_horizon: When ``False``, always use the full horizon
            (the ablation of Section VI-E).
        overhead_model: Cost model the manager uses to estimate its own
            optimization time; should match the simulator's so that
            T_PPK and T_MPC reflect what is actually charged.
        use_search_order: Ablation switch — when ``False``, the
            above/below-target reordering of Section IV-A1a is disabled
            and windows are visited in plain execution order.
        window_reserve: Ablation switch — when ``False``, undecided
            window members are not reserved at fail-safe, reverting to
            per-kernel constraint checking (the window's future can no
            longer repay or restrict the current kernel's slack).
        obs: Optional instrumentation; decisions annotate the current
            trace span (mode, horizon, predictions) and emit registry
            metrics.  Defaults to the shared no-op.

    Raises:
        ValueError: If ``target_throughput`` is not a positive finite
            number or ``alpha`` is negative or non-finite.
    """

    name = "MPC"

    def __init__(
        self,
        target_throughput: float,
        predictor: PerfPowerPredictor,
        space: Optional[ConfigSpace] = None,
        alpha: float = 0.05,
        adaptive_horizon: bool = True,
        overhead_model: Optional[OverheadModel] = None,
        use_search_order: bool = True,
        window_reserve: bool = True,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not math.isfinite(target_throughput) or target_throughput <= 0:
            raise ValueError(
                "target_throughput must be a positive, finite "
                f"instructions-per-second rate; got {target_throughput!r}"
            )
        if not math.isfinite(alpha) or alpha < 0:
            raise ValueError(
                "alpha must be a non-negative, finite performance-penalty "
                f"bound; got {alpha!r}"
            )
        self.obs = or_noop(obs)
        self.space = space if space is not None else default_space()
        self.optimizer = GreedyHillClimbOptimizer(
            self.space, predictor, obs=self.obs
        )
        self.tracker = PerformanceTracker(target_throughput)
        self.extractor = KernelPatternExtractor()
        self.alpha = alpha
        self.adaptive_horizon = adaptive_horizon
        self.overhead_model = (
            overhead_model if overhead_model is not None else OverheadModel()
        )
        self.use_search_order = use_search_order
        self.window_reserve = window_reserve
        self._fail_safe = self.optimizer.fail_safe

        # Pre-bound series handles for the per-decision telemetry: the
        # registry lookup + label canonicalization happen once here
        # instead of on every decision (no-ops under NOOP obs).
        registry = self.obs.registry
        decisions = registry.counter(
            "repro_mpc_decisions_total", "Decisions by optimization mode"
        )
        self._m_decisions = {
            mode: decisions.labelled(mode=mode) for mode in ("ppk", "mpc", "skip")
        }
        self._m_model_evals = registry.counter(
            "repro_mpc_model_evaluations_total",
            "Predictor queries spent across all decisions",
        ).labelled()
        self._m_pattern_misses = registry.counter(
            "repro_mpc_pattern_misses_total",
            "Decisions where the extractor had no expected record",
        ).labelled()

        self._lifecycle = PolicyLifecycle()
        self._stats: Optional[_ProfiledStats] = None
        self._horizon_gen: Optional[AdaptiveHorizonGenerator] = None
        self._last_config: HardwareConfig = self._fail_safe
        self._last_decision_overhead_s = 0.0

        # Profiling-run accumulators.
        self._profile_insts: List[float] = []
        self._profile_times: List[float] = []
        self._profile_overhead_s = 0.0

    # ----- lifecycle -------------------------------------------------------------

    @property
    def state(self) -> PolicyState:
        """The manager's lifecycle state (profiling / frozen / mpc)."""
        return self._lifecycle.state

    @property
    def profiled(self) -> bool:
        """Whether the initial (PPK) profiling invocation has completed."""
        return self._lifecycle.state is not PolicyState.PROFILING

    @property
    def search_order(self) -> Optional[SearchOrder]:
        """The frozen search order, once profiled."""
        return self._stats.search_order if self._stats else None

    def begin_run(self) -> None:
        if (
            self._lifecycle.state is PolicyState.PROFILING
            and self._profile_insts
        ):
            # The profiling invocation just ended: freeze its profile
            # into the search order and horizon statistics.
            self._freeze_profile()
            self._transition(PolicyState.FROZEN)
        self.extractor.end_run()
        self.tracker.reset()
        if self._horizon_gen is not None:
            self._horizon_gen.reset()
        self._last_config = self._fail_safe
        self._last_decision_overhead_s = 0.0

    def _freeze_profile(self) -> None:
        insts = self._profile_insts
        times = self._profile_times
        throughputs = [i / t for i, t in zip(insts, times)]
        cumulative = []
        acc_i = acc_t = 0.0
        for i, t in zip(insts, times):
            acc_i += i
            acc_t += t
            cumulative.append(acc_i / acc_t)
        if self.use_search_order:
            order = build_search_order(
                throughputs, cumulative, self.tracker.target_throughput
            )
        else:
            # Ablation: plain execution order (every window degenerates
            # to the current kernel plus the fail-safe reserve).
            order = SearchOrder(
                order=tuple(range(len(insts))), above_target=frozenset()
            )
        baseline_total = sum(insts) / self.tracker.target_throughput
        self._stats = _ProfiledStats(
            search_order=order,
            num_kernels=len(insts),
            mean_prefix_length=order.mean_prefix_length(),
            ppk_overhead_s=self._profile_overhead_s,
            baseline_total_time_s=baseline_total,
        )
        self._horizon_gen = AdaptiveHorizonGenerator(
            num_kernels=len(insts),
            mean_prefix_length=order.mean_prefix_length(),
            ppk_overhead_s=self._profile_overhead_s,
            baseline_total_time_s=baseline_total,
            alpha=self.alpha,
            time_profile=list(times),
            instruction_profile=list(insts),
            obs=self.obs,
        )

    def _transition(self, state: PolicyState) -> None:
        self._lifecycle.transition(state)
        self.obs.registry.counter(
            "repro_mpc_lifecycle_transitions_total",
            "Manager lifecycle transitions by destination state",
        ).inc(to=state.value)

    # ----- decisions ---------------------------------------------------------------

    def decide(self, index: int) -> Decision:
        if self._lifecycle.state is PolicyState.PROFILING:
            decision = self._decide_ppk()
        else:
            if self._lifecycle.state is PolicyState.FROZEN:
                # First decision against the frozen profile: steady state.
                self._transition(PolicyState.MPC)
            decision = self._decide_mpc(index)
        self._last_config = decision.config
        self._last_decision_overhead_s = self.overhead_model.decision_time_s(decision)
        if self.obs.enabled:
            self._m_model_evals.inc(decision.model_evaluations)
        return decision

    def _count_decision(self, mode: str) -> None:
        span = self.obs.tracer.current()
        if span is not None:
            span.attributes["mode"] = mode
        self._m_decisions[mode].inc()

    def _annotate_prediction(self, record: KernelRecord, result: Any) -> None:
        """Stamp predicted IPS / power for the kernel about to launch."""
        estimate = result.estimate
        if estimate.time_s > 0:
            span = self.obs.tracer.current()
            if span is not None:
                attrs = span.attributes
                attrs["predicted_ips"] = record.instructions / estimate.time_s
                attrs["predicted_power_w"] = estimate.energy_j / estimate.time_s

    def _decide_ppk(self) -> Decision:
        """Profiling mode: run PPK while the pattern is being extracted."""
        if self.obs.enabled:
            self._count_decision("ppk")
        record = self.extractor.last_record()
        if record is None:
            return Decision(config=self._fail_safe, fail_safe=True, horizon=0)
        result = self.optimizer.optimize_kernel(record, self.tracker)
        if self.obs.enabled:
            self._annotate_prediction(record, result)
        return Decision(
            config=result.config,
            model_evaluations=result.evaluations,
            horizon=1,
            fail_safe=result.fail_safe,
        )

    def _decide_mpc(self, index: int) -> Decision:
        assert self._stats is not None and self._horizon_gen is not None
        n = self._stats.num_kernels
        if index >= n:
            # The application launched more kernels than the profile
            # recorded; degrade gracefully to PPK behaviour.
            self.obs.tracer.annotate("pattern_hit", False)
            return self._decide_ppk()

        horizon = (
            self._horizon_gen.horizon(index) if self.adaptive_horizon else n
        )
        if self.obs.enabled:
            hit = self.extractor.expected_record(index) is not None
            span = self.obs.tracer.current()
            if span is not None:
                attrs = span.attributes
                attrs["horizon_cap"] = n
                attrs["pattern_hit"] = hit
            if not hit:
                self._m_pattern_misses.inc()
        if horizon <= 0:
            # No overhead budget: skip optimization (no model calls).
            # The previous configuration is only safe to reuse when the
            # upcoming kernel looks like the one that just ran AND we
            # are still on target; across a kernel transition, or once
            # cumulative throughput slips, take the fail-safe so the
            # situation stays recoverable.
            expected = self.extractor.expected_record(index)
            last = self.extractor.last_record()
            same_kernel = (
                expected is not None
                and last is not None
                and expected.signature == last.signature
            )
            if self.obs.enabled:
                self._count_decision("skip")
                # Health monitors key their budget-collapse detector on
                # runs of these exhausted-budget fail-safe skips.
                span = self.obs.tracer.current()
                if span is not None:
                    span.attributes["budget_exhausted"] = True
            if same_kernel and self.tracker.above_target():
                return Decision(config=self._last_config, horizon=0)
            return Decision(config=self._fail_safe, horizon=0, fail_safe=True)

        if self.obs.enabled:
            self._count_decision("mpc")
        window, reserved = self._window_records(index, horizon)
        if not window:
            return Decision(config=self._fail_safe, fail_safe=True, horizon=horizon)

        result = self.optimizer.optimize_window(
            window, self.tracker, reserved=reserved,
            reserve_window=self.window_reserve,
        )
        if self.obs.enabled:
            self._annotate_prediction(window[-1], result)
        return Decision(
            config=result.config,
            model_evaluations=result.evaluations,
            horizon=horizon,
            fail_safe=result.fail_safe,
        )

    def _window_records(
        self, index: int, horizon: int
    ) -> Tuple[List[KernelRecord], List[KernelRecord]]:
        """The optimization window and its fail-safe reserve.

        ``window`` holds the search-order prefix records ending with the
        current kernel; ``reserved`` holds window-range kernels outside
        the optimization prefix (they run within the horizon but are
        decided on a later shift) that Equation 3's whole-window
        constraint reserves at fail-safe.  Pure — shared by the real
        decision and the side-effect-free prefetch hook.
        """
        assert self._stats is not None
        positions = self._stats.search_order.window(index, horizon)
        window: List[KernelRecord] = []
        for position in positions:
            record = self.extractor.expected_record(position)
            if record is not None:
                window.append(record)
        in_prefix = set(positions)
        reserved: List[KernelRecord] = []
        if self.window_reserve:
            n = self._stats.num_kernels
            for position in range(index, min(index + horizon, n)):
                if position in in_prefix:
                    continue
                record = self.extractor.expected_record(position)
                if record is not None:
                    reserved.append(record)
        return window, reserved

    def prefetch_counters(self, index: int) -> Tuple[CounterVector, ...]:
        """Counter vectors the next :meth:`decide` will sweep.

        Recomputes the upcoming decision's window — lifecycle
        transitions, telemetry, and tracker state untouched — so
        ``SessionManager.step_batch`` can stack the sweeps this
        session's optimizer misses with every other ready session's
        into one predictor call.  The answer is the window plus its
        fail-safe reserve, exactly what ``optimize_window`` sweeps.
        Estimates are pure functions of (counters, lattice, predictor),
        so a cached sweep stays valid no matter what other sessions do
        in between.
        """
        if self._lifecycle.state is PolicyState.PROFILING:
            record = self.extractor.last_record()
            return (record.counters,) if record is not None else ()
        assert self._stats is not None and self._horizon_gen is not None
        n = self._stats.num_kernels
        if index >= n:
            # decide() degrades to PPK behaviour past the profile.
            record = self.extractor.last_record()
            return (record.counters,) if record is not None else ()
        horizon = (
            self._horizon_gen.horizon(index, emit_obs=False)
            if self.adaptive_horizon
            else n
        )
        if horizon <= 0:
            return ()  # the skip branch makes no model calls
        window, reserved = self._window_records(index, horizon)
        wanted: Dict[CounterVector, None] = {}
        for record in window:
            wanted.setdefault(record.counters)
        for record in reserved:
            wanted.setdefault(record.counters)
        return tuple(wanted)

    # ----- feedback -------------------------------------------------------------------

    def observe(self, observation: Observation) -> None:
        time_s = observation.measurement.time_s
        self.tracker.update(observation.instructions, time_s)
        self.extractor.observe(
            observation.counters,
            observation.instructions,
            time_s,
            observation.measurement.gpu_power_w,
        )
        if self._lifecycle.state is PolicyState.PROFILING:
            self._profile_insts.append(observation.instructions)
            self._profile_times.append(time_s)
            self._profile_overhead_s += self._last_decision_overhead_s
        elif self._horizon_gen is not None:
            self._horizon_gen.record(time_s, self._last_decision_overhead_s)

    # ----- migration ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Mutable state as a JSON-able dict.

        The frozen search order and horizon statistics are *not*
        serialized: they are a deterministic function of the profiling
        accumulators, so :meth:`restore` recomputes them by re-running
        the freeze.  Only genuinely mutable state migrates.
        """
        return {
            "schema": MANAGER_SNAPSHOT_SCHEMA,
            "lifecycle": self._lifecycle.state.value,
            "tracker": self.tracker.snapshot(),
            "extractor": self.extractor.snapshot(),
            "last_config": self._last_config.as_dict(),
            "last_decision_overhead_s": self._last_decision_overhead_s,
            "profile": {
                "instructions": list(self._profile_insts),
                "times": list(self._profile_times),
                "overhead_s": self._profile_overhead_s,
            },
            "horizon_elapsed_s": (
                self._horizon_gen.elapsed_s if self._horizon_gen else None
            ),
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Rebuild mutable state from :meth:`snapshot` output.

        Must be called on a manager constructed with the same arguments
        (target, predictor, space, alpha, ablation switches) as the
        snapshotted one.
        """
        if payload.get("schema") != MANAGER_SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported manager snapshot schema: {payload.get('schema')!r}"
            )
        state = PolicyState(payload["lifecycle"])
        self.tracker.restore(payload["tracker"])
        self.extractor.restore(payload["extractor"])
        self._last_config = HardwareConfig.from_dict(payload["last_config"])
        self._last_decision_overhead_s = float(payload["last_decision_overhead_s"])
        profile = payload["profile"]
        self._profile_insts = [float(v) for v in profile["instructions"]]
        self._profile_times = [float(v) for v in profile["times"]]
        self._profile_overhead_s = float(profile["overhead_s"])

        self._lifecycle = PolicyLifecycle()
        self._stats = None
        self._horizon_gen = None
        if state is not PolicyState.PROFILING:
            # Recompute the frozen statistics deterministically from the
            # restored profiling accumulators, then walk the machine
            # forward through its legal transitions.
            self._freeze_profile()
            self._lifecycle.transition(PolicyState.FROZEN)
            if state is PolicyState.MPC:
                self._lifecycle.transition(PolicyState.MPC)
            elapsed = payload["horizon_elapsed_s"]
            if elapsed is not None and self._horizon_gen is not None:
                self._horizon_gen.restore({"elapsed_s": elapsed})
