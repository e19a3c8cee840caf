"""Instrumented runs: span content, counters, the fault ring buffer.

These tests drive real sessions (oracle predictor, tiny app) and assert
on what the observability layer reports about them — including that
enabling it changes no simulated number.
"""

import pytest

from repro.core.policies import FixedConfigPolicy
from repro.hardware.config import FAILSAFE_CONFIG
from repro.obs import (
    make_instrumentation,
    publish_cache_stats,
    publish_session_stats,
)
from repro.runtime.session import (
    RECENT_ERRORS_LIMIT,
    SessionStats,
    invocation_pair,
)
from repro.sim.turbocore import TurboCorePolicy

from .conftest import APP, make_manager

pytestmark = pytest.mark.obs


class _RaisingObserver(FixedConfigPolicy):
    """A policy whose telemetry path always fails."""

    def observe(self, observation):
        raise RuntimeError("telemetry lost")


class TestLaunchSpans:
    def test_one_span_per_launch_with_identity(self, sim, obs):
        run = sim.run(APP, TurboCorePolicy(), obs=obs)
        spans = obs.tracer.spans
        assert len(spans) == len(run.launches) == len(APP)
        for index, span in enumerate(spans):
            attrs = span["attributes"]
            assert span["name"] == "launch"
            assert attrs["app"] == APP.name
            assert attrs["policy"] == "TurboCore"
            assert attrs["index"] == index
            assert attrs["kernel"] in ("c", "m")
            assert attrs["observed_ips"] > 0
            assert attrs["observed_power_w"] > 0

    def test_spans_are_stamped_with_simulated_time(self, sim, obs):
        run = sim.run(APP, TurboCorePolicy(), obs=obs)
        spans = obs.tracer.spans
        # End of the last span == the session's total simulated time,
        # and starts/ends are monotone — no wall clock involved.
        total = run.kernel_time_s + run.overhead_time_s
        assert spans[-1]["end_s"] == pytest.approx(total)
        ends = [span["end_s"] for span in spans]
        assert ends == sorted(ends)
        for span in spans:
            assert span["start_s"] <= span["end_s"]

    def test_mpc_decision_internals_on_span(self, sim, obs):
        manager = make_manager(sim, obs=obs)
        _, steady = invocation_pair(sim.session(manager, obs=obs), APP)
        spans = obs.tracer.spans
        mpc_spans = [s for s in spans if s["attributes"].get("mode") == "mpc"]
        assert mpc_spans, "steady-state invocation produced no MPC spans"
        for span in mpc_spans:
            attrs = span["attributes"]
            assert attrs["policy"] == "MPC"
            assert attrs["predicted_ips"] > 0
            assert attrs["predicted_power_w"] > 0
            assert attrs["horizon"] >= 1
            assert attrs["horizon_cap"] >= attrs["horizon"]
            assert "horizon_budget_s" in attrs
            assert "pattern_hit" in attrs
            assert "hill_climb_steps" in attrs
            assert attrs["model_evaluations"] > 0
        # The profiling invocation decides through the PPK path.
        assert any(s["attributes"].get("mode") == "ppk" for s in spans)

    def test_predictions_close_to_observations_with_oracle(self, sim, obs):
        manager = make_manager(sim, obs=obs)
        invocation_pair(sim.session(manager, obs=obs), APP)
        # Only MPC-mode decisions predict the *upcoming* kernel (PPK
        # optimizes from the previous kernel's counters, so on an
        # alternating app its predictions lag a launch — exactly the
        # mispredict the trace is meant to expose).
        checked = 0
        for span in obs.tracer.spans:
            attrs = span["attributes"]
            if attrs.get("mode") != "mpc" or "predicted_ips" not in attrs:
                continue
            # Oracle predictor: the prediction is the ground truth.
            assert attrs["predicted_ips"] == pytest.approx(
                attrs["observed_ips"], rel=1e-6
            )
            checked += 1
        assert checked > 0

    def test_enabling_obs_does_not_change_results(self, sim):
        plain = sim.run(APP, TurboCorePolicy())
        traced = sim.run(APP, TurboCorePolicy(), obs=make_instrumentation())
        assert traced.kernel_time_s == plain.kernel_time_s
        assert traced.energy_j == plain.energy_j
        assert traced.launches == plain.launches


class TestRuntimeCounters:
    def test_launch_and_run_counters(self, sim, obs):
        sim.run(APP, TurboCorePolicy(), obs=obs)
        registry = obs.registry
        assert registry.counter("repro_runtime_launches_total").total() == len(APP)
        assert registry.counter("repro_runtime_runs_total").total() == 1
        hist = registry.histogram("repro_runtime_kernel_seconds")
        assert hist.count(session="") == len(APP)

    def test_mpc_and_optimizer_counters(self, sim, obs):
        manager = make_manager(sim, obs=obs)
        invocation_pair(sim.session(manager, obs=obs), APP)
        registry = obs.registry
        decisions = registry.counter("repro_mpc_decisions_total")
        assert decisions.value(mode="ppk") > 0
        assert decisions.value(mode="mpc") > 0
        assert registry.counter("repro_mpc_model_evaluations_total").total() > 0
        assert registry.counter("repro_optimizer_searches_total").total() > 0
        assert registry.counter("repro_optimizer_evaluations_total").total() > 0
        transitions = registry.counter("repro_mpc_lifecycle_transitions_total")
        assert transitions.value(to="frozen") == 1
        assert transitions.value(to="mpc") == 1
        assert registry.counter("repro_horizon_requests_total").total() > 0
        assert registry.histogram(
            "repro_horizon_length",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).count() > 0


class TestFaultRingBuffer:
    def test_observe_faults_recorded_and_traced(self, sim, obs):
        policy = _RaisingObserver(FAILSAFE_CONFIG)
        session = sim.session(policy, isolate_faults=True, obs=obs)
        session.run(APP)
        stats = session.stats
        assert stats.observe_failures == len(APP)
        assert len(stats.recent_errors) == min(len(APP), RECENT_ERRORS_LIMIT)
        assert all("telemetry lost" in err for err in stats.recent_errors)
        assert "telemetry lost" in stats.format()
        faults = obs.registry.counter("repro_runtime_faults_total")
        assert faults.value(session="", phase="observe") == len(APP)
        errored = [
            s for s in obs.tracer.spans if "error" in s["attributes"]
        ]
        assert len(errored) == len(APP)
        assert "telemetry lost" in errored[0]["attributes"]["error"]

    def test_ring_buffer_is_bounded(self):
        stats = SessionStats()
        for i in range(RECENT_ERRORS_LIMIT + 5):
            stats.record_error(ValueError(f"e{i}"))
        assert len(stats.recent_errors) == RECENT_ERRORS_LIMIT
        assert stats.recent_errors[-1] == repr(
            ValueError(f"e{RECENT_ERRORS_LIMIT + 4}")
        )
        assert f"recent faults (last {RECENT_ERRORS_LIMIT})" in stats.format()

    def test_merge_respects_target_limit(self):
        a = SessionStats()
        a.record_error(ValueError("a"))
        b = SessionStats()
        for i in range(RECENT_ERRORS_LIMIT + 2):
            b.record_error(ValueError(f"e{i}"))
        a.merge(b)
        assert a.recent_errors == [
            repr(ValueError(f"e{i}")) for i in range(2, RECENT_ERRORS_LIMIT + 2)
        ]


class TestStatsProvenance:
    def test_session_stats_merge_tracks_sources(self):
        a = SessionStats(runs=1, launches=4, sources=1)
        a.record_error(ValueError("a"))
        b = SessionStats(runs=2, launches=6, sources=1)
        b.record_error(ValueError("b"))
        a.merge(b)
        assert a.runs == 3 and a.launches == 10
        assert a.sources == 2
        assert a.recent_errors == [repr(ValueError("a")), repr(ValueError("b"))]
        assert "[merged from 2 session(s)]" in a.format()

    def test_cache_stats_merge_tracks_sources(self):
        from repro.engine.cache import CacheStats

        a = CacheStats(hits=1)
        b = CacheStats(misses=2)
        a.merge(b)
        assert a.sources == 2
        assert "merged from 2 caches" in a.format()

    def test_publish_bridges_export_gauges(self, obs):
        from repro.engine.cache import CacheStats

        publish_session_stats(
            obs.registry, SessionStats(runs=2, launches=8), session="s1"
        )
        publish_cache_stats(obs.registry, CacheStats(hits=3), scope="engine")
        assert obs.registry.gauge("repro_session_launches").value(session="s1") == 8
        assert obs.registry.gauge("repro_session_sources").value(session="s1") == 1
        assert obs.registry.gauge("repro_cache_hits").value(scope="engine") == 3


class TestSessionManagerAggregation:
    def test_aggregate_and_publish(self, obs):
        from repro.runtime.manager import SessionManager

        manager = SessionManager(obs=obs)
        manager.add_session("s1", TurboCorePolicy())
        manager.add_session("s2", TurboCorePolicy())
        from repro.runtime.events import launch_events

        for sid in ("s1", "s2"):
            for event in launch_events(APP, sid):
                manager.dispatch(event)
        total = manager.aggregate_stats()
        assert total.launches == 2 * len(APP)
        assert total.sources == 2
