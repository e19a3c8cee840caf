"""Model-health monitoring: detectors, gating, state machine, wiring.

Unit tests drive :class:`HealthMonitor` with synthetic launch
attributes; the end-to-end tests replay generated adversarial scenarios
and assert the documented drift contracts (mispredict-cascade and
input-storm trip within K decisions, phase-shift stays HEALTHY because
the fail-safe contains it — docs/TRACES.md).
"""

import pytest

from repro.obs import make_instrumentation
from repro.obs.health import (
    ERROR_BUCKETS,
    RECOVERY_SAMPLES,
    SKIP_CASCADE,
    WARMUP_SAMPLES,
    HealthMonitor,
    HealthState,
    MeanShift,
    NULL_HEALTH,
    NullHealthMonitor,
    PageHinkley,
    format_health_report,
    relative_errors,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.runtime.session import invocation_pair
from repro.workloads.traces.replay import TraceReplayer
from repro.workloads.traces.scenarios import ScenarioGenerator
from tests.batched_replay import replay_batched

from .conftest import APP, make_manager

pytestmark = pytest.mark.obs


def launch(index=0, mode="mpc", fail_safe=False, fallback=False,
           session="s", kernel="k", error=0.0, **extra):
    """Launch-span attributes with a chosen relative IPS/power error."""
    observed = 100.0
    attrs = {
        "session": session, "app": "a", "policy": "MPC", "index": index,
        "kernel": kernel, "config": "c", "fail_safe": fail_safe,
        "fallback": fallback, "mode": mode,
        "predicted_ips": observed * (1.0 + error),
        "observed_ips": observed,
        "predicted_power_w": observed * (1.0 + error),
        "observed_power_w": observed,
    }
    attrs.update(extra)
    return attrs


class TestDetectors:
    def test_page_hinkley_fires_on_upward_shift(self):
        ph = PageHinkley(delta=0.05, threshold=2.0)
        assert not any(ph.update(0.05) for _ in range(50))
        fired = [ph.update(1.5) for _ in range(10)]
        assert any(fired)

    def test_page_hinkley_stationary_stream_never_fires(self):
        ph = PageHinkley(delta=0.05, threshold=2.0)
        assert not any(ph.update(0.3) for _ in range(500))

    def test_page_hinkley_rearms_after_firing(self):
        ph = PageHinkley(delta=0.05, threshold=2.0)
        for _ in range(20):
            ph.update(0.02)
        assert any(ph.update(2.0) for _ in range(5))
        # Reset on fire: a second drift fires again from scratch.
        for _ in range(20):
            ph.update(0.02)
        assert any(ph.update(2.0) for _ in range(5))

    def test_mean_shift_needs_a_full_double_window(self):
        shift = MeanShift(window=4, threshold=0.35)
        values = [0.0] * 4 + [1.0] * 4
        fired = [shift.update(v) for v in values]
        assert fired == [False] * 7 + [True]

    def test_mean_shift_stationary_stream_never_fires(self):
        shift = MeanShift(window=4, threshold=0.35)
        assert not any(shift.update(0.5) for _ in range(100))

    def test_mean_shift_clears_after_firing(self):
        shift = MeanShift(window=2, threshold=0.35)
        for v in (0.0, 0.0, 1.0, 1.0):
            last = shift.update(v)
        assert last and not shift.values


class TestRelativeErrors:
    def test_both_quantities(self):
        errors = relative_errors(launch(error=0.5))
        assert errors["ips"] == pytest.approx(0.5)
        assert errors["power"] == pytest.approx(0.5)

    def test_missing_prediction_gives_none(self):
        attrs = launch()
        del attrs["predicted_ips"], attrs["predicted_power_w"]
        assert relative_errors(attrs) is None

    def test_zero_observed_is_skipped(self):
        attrs = launch(observed_ips=0.0)
        assert set(relative_errors(attrs)) == {"power"}


class TestSampleGating:
    def test_profiling_ppk_is_excluded_entirely(self):
        monitor = HealthMonitor()
        monitor.observe_launch(launch(mode="ppk", error=5.0))
        health = monitor.sessions["s"]
        assert (health.decisions, health.samples) == (1, 0)

    def test_overflow_ppk_feeds_ledger_but_not_detectors(self):
        monitor = HealthMonitor()
        monitor.observe_launch(
            launch(mode="ppk", error=5.0, pattern_hit=False)
        )
        health = monitor.sessions["s"]
        assert (health.samples, health.trusted_samples) == (1, 0)
        assert health.events["pattern_miss"] == 1

    def test_fail_safe_and_fallback_are_untrusted(self):
        monitor = HealthMonitor()
        monitor.observe_launch(launch(fail_safe=True, error=5.0))
        monitor.observe_launch(launch(fallback=True, error=5.0))
        health = monitor.sessions["s"]
        assert (health.samples, health.trusted_samples) == (2, 0)
        assert health.events == {"fail_safe": 1, "fallback": 1}

    def test_clean_mpc_sample_is_trusted(self):
        monitor = HealthMonitor()
        monitor.observe_launch(launch(error=0.1))
        health = monitor.sessions["s"]
        assert (health.samples, health.trusted_samples) == (1, 1)
        assert health.ewma["ips"] == pytest.approx(0.1)


class TestBudgetCollapse:
    def _skip(self, index):
        return launch(index=index, mode="skip", fail_safe=True,
                      budget_exhausted=True)

    def test_cascade_of_skips_is_drift(self):
        monitor = HealthMonitor()
        for index in range(1, 4):
            monitor.observe_launch(self._skip(index))
        health = monitor.sessions["s"]
        assert health.drift_events == 1
        assert health.first_drift_decision == 3
        assert health.state is HealthState.DEGRADED

    def test_streak_broken_by_non_skip_decision(self):
        monitor = HealthMonitor()
        monitor.observe_launch(self._skip(1))
        monitor.observe_launch(self._skip(2))
        monitor.observe_launch(launch(index=3))
        monitor.observe_launch(self._skip(4))
        assert monitor.sessions["s"].drift_events == 0

    def test_streak_resets_at_run_boundary(self):
        monitor = HealthMonitor()
        monitor.observe_launch(self._skip(5))
        monitor.observe_launch(self._skip(6))
        monitor.observe_launch(self._skip(0))  # new invocation
        assert monitor.sessions["s"].drift_events == 0

    def test_second_cascade_escalates_to_untrusted(self):
        monitor = HealthMonitor()
        for index in range(1, 7):
            monitor.observe_launch(self._skip(index))
        health = monitor.sessions["s"]
        assert health.drift_events == 2
        assert health.state is HealthState.UNTRUSTED
        assert [t["detector"] for t in health.transitions] == (
            ["budget-collapse", "budget-collapse"]
        )


class TestWarmupAndStateMachine:
    def test_alarms_disarmed_during_warmup(self):
        monitor = HealthMonitor()
        for _ in range(WARMUP_SAMPLES - 1):
            monitor.observe_launch(launch(error=5.0))
        health = monitor.sessions["s"]
        assert health.state is HealthState.HEALTHY
        assert health.drift_events == 0

    def test_ewma_floor_escalates_after_warmup(self):
        monitor = HealthMonitor()
        for _ in range(WARMUP_SAMPLES):
            monitor.observe_launch(launch(error=5.0))
        health = monitor.sessions["s"]
        assert health.state is HealthState.UNTRUSTED
        assert any(t["reason"] == "ewma" for t in health.transitions)

    def test_recovery_de_escalates_one_level_per_streak(self):
        monitor = HealthMonitor()
        for _ in range(WARMUP_SAMPLES):
            monitor.observe_launch(launch(error=5.0))
        # The EWMA needs 8 clean samples to fall from 5.0 to the
        # degraded threshold; each recovery streak starts after that.
        for _ in range(2 * RECOVERY_SAMPLES + 8):
            monitor.observe_launch(launch(error=0.0))
        health = monitor.sessions["s"]
        assert health.state is HealthState.HEALTHY
        reasons = [t["reason"] for t in health.transitions]
        assert reasons.count("recovery") == 2

    def test_page_hinkley_drift_after_warmup(self):
        monitor = HealthMonitor()
        for _ in range(WARMUP_SAMPLES):
            monitor.observe_launch(launch(error=0.01))
        for _ in range(10):
            monitor.observe_launch(launch(error=1.2))
        health = monitor.sessions["s"]
        assert health.drift_events >= 1
        detectors = {
            t.get("detector") for t in health.transitions if "detector" in t
        }
        assert any(d.startswith(("page-hinkley", "mean-shift"))
                   for d in detectors)


class TestMetricsAndSpans:
    def test_registry_series_for_one_trusted_sample(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(registry)
        monitor.observe_launch(launch(error=0.1))
        assert registry.counter("repro_health_decisions_total").value(
            session="s") == 1.0
        assert registry.counter("repro_health_samples_total").value(
            session="s", trusted="yes") == 1.0
        assert registry.gauge("repro_health_state").value(session="s") == 0.0
        assert registry.gauge("repro_health_ewma").value(
            session="s", quantity="ips") == pytest.approx(0.1)

    def test_transition_emits_health_span(self):
        tracer = Tracer()
        monitor = HealthMonitor(tracer=tracer)
        for index in range(1, SKIP_CASCADE + 1):
            monitor.observe_launch(
                launch(index=index, mode="skip", fail_safe=True), at=3.5
            )
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span["name"] == "health"
        assert span["start_s"] == span["end_s"] == 3.5
        attrs = span["attributes"]
        assert attrs["from_state"] == "healthy"
        assert attrs["to_state"] == "degraded"
        assert attrs["detector"] == "budget-collapse"
        assert attrs["drift_events"] == 1

    def test_observe_span_filters_non_launch_payloads(self):
        monitor = HealthMonitor()
        monitor.observe_span({"name": "health", "attributes": {"x": 1}})
        monitor.observe_span({"name": "launch"})
        assert monitor.sessions == {}
        monitor.observe_span(
            {"name": "launch", "end_s": 1.0, "attributes": launch()}
        )
        assert monitor.sessions["s"].decisions == 1

    def test_launches_without_a_session_are_keyed_by_app_and_policy(self):
        monitor = HealthMonitor()
        for app, policy in [("a", "MPC"), ("b", "MPC"), ("a", "PPK"), ("a", "MPC")]:
            monitor.observe_launch(launch(session="", app=app, policy=policy))
        monitor.observe_launch(launch(session="s", app="a", policy="MPC"))
        assert {
            name: health.decisions for name, health in monitor.sessions.items()
        } == {"a/MPC": 2, "b/MPC": 1, "a/PPK": 1, "s": 1}


class TestNullMonitor:
    def test_null_monitor_is_inert(self):
        assert NULL_HEALTH.enabled is False
        assert isinstance(NULL_HEALTH, NullHealthMonitor)
        NULL_HEALTH.observe_launch(launch(error=9.0))
        NULL_HEALTH.observe_span({"name": "launch"})
        assert NULL_HEALTH.drift_events() == 0
        assert NULL_HEALTH.first_drift_decision() == float("inf")
        assert NULL_HEALTH.final_state() == 0
        assert NULL_HEALTH.transitions_count() == 0
        assert NULL_HEALTH.report()["sessions"] == {}

    def test_noop_instrumentation_has_null_health(self):
        from repro.obs import NOOP

        assert NOOP.health is NULL_HEALTH
        assert NOOP.enabled is False
        # Default instrumentation keeps health off unless asked for.
        assert make_instrumentation().health is NULL_HEALTH
        assert make_instrumentation(health=True).health.enabled


class TestLiveSession:
    def test_healthy_session_stays_healthy(self, sim):
        obs = make_instrumentation(health=True)
        manager = make_manager(sim, obs=obs)
        invocation_pair(sim.session(manager, obs=obs), APP)
        report = obs.health.report()["sessions"]
        (health,) = report.values()
        assert health["state"] == "HEALTHY"
        assert health["drift_events"] == 0
        assert health["decisions"] == 2 * len(APP)
        # The oracle predictor is exact: every trusted error is ~0.
        assert health["ewma"]["ips"] == pytest.approx(0.0, abs=1e-9)

    def test_health_report_formats(self, sim):
        obs = make_instrumentation(health=True)
        manager = make_manager(sim, obs=obs)
        invocation_pair(sim.session(manager, obs=obs), APP)
        text = format_health_report(obs.health.report())
        assert "model health" in text and "HEALTHY" in text


def test_health_report_columns_fit_the_longest_names():
    # Engine and CLI sessions are named <app>/<policy>; the session and
    # kernel columns must widen to fit them, not overflow a fixed width.
    monitor = HealthMonitor()
    sessions = ("kmeans/TheoreticallyOptimal", "s")
    kernels = ("kmeans_kernel_compute_memberships", "k")
    for index in range(4):
        for session in sessions:
            for kernel in kernels:
                monitor.observe_launch(
                    launch(index=index, session=session, kernel=kernel)
                )
    report = monitor.report()
    lines = format_health_report(report).splitlines()
    header = lines[1]
    state = header.index("state")
    for line, session in zip(lines[2:], sessions):
        assert line.startswith(session + " ")
        assert line[state - 1] == " "
        assert line[state:].startswith(report["sessions"][session]["state"])
    kernel_headers = [line for line in lines if line.lstrip().startswith("kernel ")]
    assert len(kernel_headers) == len(sessions)
    end = kernel_headers[0].index("samples") + len("samples")
    rows = [line for line in lines[4:] if line.startswith("  ")
            and line not in kernel_headers]
    assert len(rows) == len(sessions) * len(kernels)
    for line in kernel_headers + rows:
        assert line[end - 1] != " " and line[end] == " "


def _health_worker_snapshot(worker_id):
    """One engine worker's health registry (module-level: picklable)."""
    registry = MetricsRegistry()
    monitor = HealthMonitor(registry)
    for index in range(worker_id + 1):
        monitor.observe_launch(
            launch(index=index, session=f"w{worker_id}", error=0.1)
        )
    return registry.snapshot()


class TestWorkerMerge:
    """Health series survive the worker→parent snapshot/merge path."""

    def test_process_pool_merge_accumulates_health_series(self):
        import concurrent.futures

        parent = MetricsRegistry()
        HealthMonitor(parent)  # parent-side families pre-registered
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            for snap in pool.map(_health_worker_snapshot, range(3)):
                parent.merge(snap)
        assert parent.counter("repro_health_decisions_total").total() == 6.0
        error = parent.histogram(
            "repro_health_rel_error", buckets=ERROR_BUCKETS
        )
        observations = sum(s["count"] for s in error.series().values())
        assert observations == 12  # 6 samples x 2 quantities
        assert parent.sources == 4  # parent + 3 workers

    def test_merged_histogram_equals_serial_ingestion(self):
        serial = MetricsRegistry()
        monitor = HealthMonitor(serial)
        merged = MetricsRegistry()
        HealthMonitor(merged)
        for worker_id in range(3):
            merged.merge(_health_worker_snapshot(worker_id))
            for index in range(worker_id + 1):
                monitor.observe_launch(
                    launch(index=index, session=f"w{worker_id}", error=0.1)
                )
        assert (
            serial.snapshot()["metrics"] == merged.snapshot()["metrics"]
        )

    def test_batched_step_groups_match_streaming_health(self):
        # step_batch groups many sessions per sweep; its transparency
        # contract extends to the health layer byte-for-byte.
        trace = ScenarioGenerator(seed=0).generate("mispredict-cascade")
        streaming = TraceReplayer(trace, check=False).replay()
        batched = replay_batched(trace)
        assert (
            batched.health.report() == streaming.health.report()
        )


class TestScenarioContracts:
    """The documented end-to-end drift contracts (K in docs/TRACES.md)."""

    @pytest.fixture(scope="class")
    def replays(self):
        generator = ScenarioGenerator(seed=0)
        return {
            family: TraceReplayer(generator.generate(family)).replay()
            for family in (
                "mispredict-cascade", "input-storm", "phase-shift"
            )
        }

    def test_mispredict_cascade_trips_within_k(self, replays):
        health = replays["mispredict-cascade"].health
        assert health.drift_events("mispredict-cascade") >= 1
        assert health.first_drift_decision("mispredict-cascade") <= 15
        assert health.final_state("mispredict-cascade") >= 1

    def test_input_storm_trips_within_k(self, replays):
        health = replays["input-storm"].health
        assert health.drift_events("input-storm") >= 1
        assert health.first_drift_decision("input-storm") <= 12

    def test_phase_shift_is_contained_by_the_fail_safe(self, replays):
        health = replays["phase-shift"].health
        assert health.drift_events("phase-shift") == 0
        assert health.final_state("phase-shift") == 0

    def test_drift_counter_metric_exported(self, replays):
        registry = replays["mispredict-cascade"].registry
        total = registry.counter("repro_health_drift_events_total").total()
        assert total >= 1
