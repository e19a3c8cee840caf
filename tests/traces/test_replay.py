"""Tests for TraceReplayer: float-exact checking, metrics, spans."""

import dataclasses
import math

import pytest

from repro.core.manager import MPCPowerManager
from repro.core.policies import FixedConfigPolicy, PPKPolicy
from repro.hardware.apu import APUModel
from repro.hardware.config import FAILSAFE_CONFIG, ConfigSpace, HardwareConfig
from repro.obs import NOOP, make_instrumentation
from repro.sim.simulator import OverheadModel
from repro.sim.turbocore import TurboCorePolicy
from repro.workloads.traces import (
    ASSERTION_METRICS,
    FAMILIES,
    CoverageAssertion,
    PolicySpec,
    RecordedDecision,
    ScenarioGenerator,
    Trace,
    TraceHeader,
    TraceReplayer,
    build_policy,
    outcome_decision,
    stamp_decisions,
    trace_from_benchmark,
)

from .conftest import KERNELS, small_trace

pytestmark = pytest.mark.traces


def _with_assertions(trace, *assertions):
    header = TraceHeader(
        name=trace.header.name,
        source=trace.header.source,
        seed=trace.header.seed,
        enforce_tdp=trace.header.enforce_tdp,
        sessions=trace.header.sessions,
        assertions=tuple(assertions),
    )
    return Trace(header=header, events=trace.events)


# ----- checking replays -------------------------------------------------------


def test_stamped_replay_is_float_exact(small_stamped):
    report = TraceReplayer(small_stamped).replay()
    assert report.checked == len(small_stamped.events)
    assert report.mismatches == []
    assert report.passed


def test_serialized_stamped_replay_is_float_exact(small_stamped, tmp_path):
    """record -> serialize -> parse -> replay reproduces every decision."""
    path = small_stamped.dump(str(tmp_path / "t.jsonl"))
    report = TraceReplayer(Trace.load(path)).replay()
    assert report.checked == len(small_stamped.events)
    assert report.mismatches == []


def test_tampered_float_is_detected(small_stamped):
    decisions = [e.decision for e in small_stamped.events]
    decisions[5] = dataclasses.replace(
        decisions[5], time_s=decisions[5].time_s * (1.0 + 1e-12)
    )
    report = TraceReplayer(small_stamped.with_decisions(decisions)).replay()
    assert len(report.mismatches) == 1
    assert "time_s" in report.mismatches[0]
    assert not report.passed


def test_tampered_config_is_detected(small_stamped):
    decisions = [e.decision for e in small_stamped.events]
    victim = next(
        i for i, d in enumerate(decisions) if d.config != FAILSAFE_CONFIG
    )
    decisions[victim] = dataclasses.replace(
        decisions[victim], config=FAILSAFE_CONFIG
    )
    report = TraceReplayer(small_stamped.with_decisions(decisions)).replay()
    assert any("config" in m for m in report.mismatches)


def _tampered(value):
    """A value of the same type that no faithful replay reproduces."""
    if isinstance(value, HardwareConfig):
        fastest = ConfigSpace().fastest()
        return FAILSAFE_CONFIG if value != FAILSAFE_CONFIG else fastest
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    raise TypeError(f"no tamper rule for {type(value).__name__}")


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(RecordedDecision)]
)
def test_every_recorded_field_is_compared(small_stamped, name):
    """Tampering any one recorded field yields one mismatch naming it."""
    decisions = [e.decision for e in small_stamped.events]
    decisions[5] = dataclasses.replace(
        decisions[5], **{name: _tampered(getattr(decisions[5], name))}
    )
    report = TraceReplayer(small_stamped.with_decisions(decisions)).replay()
    assert len(report.mismatches) == 1
    assert f": {name} " in report.mismatches[0]


def test_check_false_skips_comparison(small_stamped):
    report = TraceReplayer(small_stamped, check=False).replay()
    assert report.checked == 0
    assert report.mismatches == []


def test_unstamped_trace_checks_nothing():
    report = TraceReplayer(small_trace()).replay()
    assert report.checked == 0
    assert len(report.outcomes) == len(small_trace().events)


# ----- report metrics ---------------------------------------------------------


def test_report_metrics(small_stamped):
    report = TraceReplayer(small_stamped).replay()
    assert report.metric("sessions") == 1.0
    assert report.metric("launches") == 16.0
    assert report.metric("launches", "alt") == 16.0
    assert report.metric("runs") == 2.0
    assert report.metric("distinct_configs") >= 1.0
    assert report.metric("fail_safe_total") == (
        report.metric("fail_safe_decisions") + report.metric("fail_safe_fallbacks")
    )
    # The MPC mode counters account for every decision of the replay.
    decided = (
        report.metric("ppk_decisions")
        + report.metric("mpc_decisions")
        + report.metric("skip_decisions")
    )
    assert decided == 16.0


def test_report_decisions_filter_by_session(small_stamped):
    report = TraceReplayer(small_stamped).replay()
    assert report.decisions() == report.decisions("alt")
    assert report.decisions("ghost") == []


def test_failing_assertion_reported(small_stamped):
    trace = _with_assertions(
        small_stamped,
        CoverageAssertion("launches", "==", 16.0),
        CoverageAssertion("tdp_throttles", ">=", 1.0),
    )
    report = TraceReplayer(trace).replay()
    results = {str(r.assertion): r for r in report.assertion_results}
    assert results["launches == 16"].passed
    failed = results["tdp_throttles >= 1"]
    assert not failed.passed
    assert failed.measured == 0.0
    assert str(failed).startswith("FAIL")
    assert not report.passed


# ----- observability ----------------------------------------------------------


def test_replay_emits_summary_span(small_stamped):
    report = TraceReplayer(small_stamped).replay()
    names = {span["name"] for span in report.spans}
    assert names == {"launch", "replay"}
    summary = [s for s in report.spans if s["name"] == "replay"]
    assert len(summary) == 1
    attrs = summary[0]["attributes"]
    assert attrs["trace"] == "small"
    assert attrs["sessions"] == 1
    assert attrs["launches"] == 16
    assert attrs["checked"] == 16
    assert attrs["mismatches"] == 0
    assert attrs["assertions_failed"] == 0


def test_second_replay_reports_what_the_first_did():
    """Each replay runs under its own instrumentation: a second replay
    on the same replayer gives the same assertion results, metrics and
    spans, and leaves the first report reading what it read."""
    replayer = TraceReplayer(ScenarioGenerator(seed=0).generate("input-storm"))
    first = replayer.replay()
    measured = {name: first.metric(name) for name in ASSERTION_METRICS}
    second = replayer.replay()
    assert second.assertion_results == first.assertion_results
    assert {name: second.metric(name) for name in ASSERTION_METRICS} == measured
    assert {name: first.metric(name) for name in ASSERTION_METRICS} == measured
    assert second.spans == first.spans


def test_replay_span_validates_against_schema(small_stamped):
    import json

    from repro.obs.exporters import validate_span

    with open("docs/trace.schema.json", encoding="utf-8") as handle:
        schema = json.load(handle)
    report = TraceReplayer(small_stamped).replay()
    for span in report.spans:
        assert validate_span(span, schema) == []


# ----- policy construction ----------------------------------------------------


def test_build_policy_kinds():
    apu, overhead = APUModel(), OverheadModel()
    kernels = list(KERNELS)

    def build(spec):
        return build_policy(spec, kernels, apu=apu, overhead=overhead)

    assert isinstance(build(PolicySpec(kind="turbo")), TurboCorePolicy)
    fixed = build(PolicySpec(kind="fixed", config=FAILSAFE_CONFIG))
    assert isinstance(fixed, FixedConfigPolicy)
    assert isinstance(
        build(PolicySpec(kind="ppk", target_throughput=1e9)), PPKPolicy
    )
    mpc = build(PolicySpec(kind="mpc", target_throughput=1e9, alpha=0.1))
    assert isinstance(mpc, MPCPowerManager)
    with pytest.raises(ValueError, match="unknown policy kind"):
        build(PolicySpec(kind="greedy", target_throughput=1e9))


def test_replayer_rejects_invalid_trace():
    trace = small_trace()
    broken = Trace(header=trace.header, events=trace.events[1:])
    with pytest.raises(ValueError, match="invalid trace"):
        TraceReplayer(broken)


# ----- recording --------------------------------------------------------------


def test_trace_from_benchmark_shape():
    trace = trace_from_benchmark("XSBench", invocations=3)
    assert trace.header.name == "XSBench-mpc"
    assert trace.header.source == "record:XSBench"
    assert trace.session_ids() == ["XSBench"]
    assert len(trace.events) == 3 * 6
    assert trace.header.sessions[0].policy.kind == "mpc"
    assert trace.header.sessions[0].policy.target_throughput > 0.0


def test_trace_from_benchmark_rejects_bad_invocations():
    with pytest.raises(ValueError, match="invocations must be positive"):
        trace_from_benchmark("XSBench", invocations=0)


def test_recorded_benchmark_replays_exactly():
    """The acceptance criterion: a recorded suite run reproduces its
    decision sequence float-for-float through serialization."""
    stamped = stamp_decisions(trace_from_benchmark("XSBench"))
    reloaded = Trace.loads(stamped.dumps())
    report = TraceReplayer(reloaded).replay()
    assert report.checked == len(stamped.events)
    assert report.mismatches == []
    assert report.passed


def _dispatch_all(trace, obs):
    """Every event of ``trace`` through the replayer's sessions, built
    under ``obs``: decisions, then per-session stats and snapshots."""
    manager = TraceReplayer(trace, check=False)._build_manager(obs)
    decisions = [
        outcome_decision(manager.dispatch(event.as_launch()))
        for event in trace.events
    ]
    sessions = [manager.session(sid) for sid in manager.session_ids()]
    return (
        decisions,
        [session.stats for session in sessions],
        [session.snapshot() for session in sessions],
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_health_on_replay_decides_like_noop(family):
    """Observation never feeds back into what it observes: tracing,
    metrics and the health monitor leave every decision, every
    ``SessionStats`` field and every session snapshot as a NOOP run
    leaves them."""
    trace = ScenarioGenerator(seed=0).generate(family)
    obs = make_instrumentation(health=True)
    observed = _dispatch_all(trace, obs)
    assert obs.tracer.spans  # the instrumentation was live
    assert observed == _dispatch_all(trace, NOOP)
