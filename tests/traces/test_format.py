"""Tests for the versioned JSONL kernel-launch trace format."""

import json

import pytest

from repro.hardware.config import FAILSAFE_CONFIG
from repro.runtime.events import KernelLaunch
from repro.workloads.kernel import KernelSpec, ScalingClass
from repro.workloads.suites import all_benchmarks
from repro.workloads.traces import (
    ASSERTION_METRICS,
    ASSERTION_OPS,
    GLOBAL_ONLY_METRICS,
    TRACE_SCHEMA,
    CoverageAssertion,
    PolicySpec,
    RecordedDecision,
    SessionSpec,
    Trace,
    TraceEvent,
    TraceHeader,
    kernel_from_dict,
    kernel_to_dict,
)

from tests.dataclass_fields import field_names, off_default

from .conftest import COMPUTE, KERNELS, MEMORY, small_trace

pytestmark = pytest.mark.traces


# ----- kernel serialization ---------------------------------------------------


def test_kernel_round_trip_covers_every_suite_kernel():
    """Every Table-IV kernel spec survives dict round-trip exactly."""
    for app in all_benchmarks():
        for spec in app.unique_kernels:
            assert kernel_from_dict(kernel_to_dict(spec)) == spec


def test_kernel_dict_is_json_scalar_only():
    payload = kernel_to_dict(COMPUTE)
    assert payload["name"] == "c"
    assert payload["scaling_class"] == COMPUTE.scaling_class.value
    assert isinstance(payload["scaling_class"], str)
    assert set(payload) == field_names(KernelSpec)


def test_kernel_round_trip_sets_every_field():
    """Each KernelSpec field, set off its default, survives the trace."""
    spec = off_default(
        KernelSpec,
        name="stencil",
        scaling_class=ScalingClass.PEAK,
        compute_work=2.5,
        memory_traffic=0.75,
        parallel_fraction=0.875,
        serial_time_s=1.0e-4,
        cache_interference=0.125,
        cache_sweet_spot_cu=4,
        compute_efficiency=0.625,
        instructions=1.5e9,
        activity_factor=1.25,
        input_id=3,
    )
    payload = json.loads(json.dumps(kernel_to_dict(spec)))
    assert kernel_from_dict(payload) == spec


def test_kernel_from_dict_rejects_unknown_fields():
    payload = kernel_to_dict(COMPUTE)
    payload["warp_occupancy"] = 1.0
    with pytest.raises(ValueError, match="unknown kernel fields"):
        kernel_from_dict(payload)


def test_recorded_decision_round_trip():
    decision = off_default(
        RecordedDecision,
        config=FAILSAFE_CONFIG,
        time_s=1.25e-3,
        gpu_energy_j=0.375,
        cpu_energy_j=0.0625,
        overhead_time_s=2.5e-5,
        overhead_gpu_energy_j=1.0e-6,
        overhead_cpu_energy_j=4.0e-6,
        horizon=3,
        fail_safe=True,
        fallback=True,
    )
    payload = json.loads(json.dumps(decision.as_dict()))
    assert set(payload) == field_names(RecordedDecision)
    assert RecordedDecision.from_dict(payload) == decision


# ----- events and header ------------------------------------------------------


def test_event_as_launch_matches_protocol():
    event = TraceEvent(index=3, session="s", spec=MEMORY)
    launch = event.as_launch()
    assert isinstance(launch, KernelLaunch)
    assert (launch.index, launch.session_id, launch.spec) == (3, "s", MEMORY)


def test_event_dict_omits_absent_decision():
    payload = TraceEvent(index=0, session="s", spec=COMPUTE).as_dict()
    assert payload["record"] == "launch"
    assert "decision" not in payload


def test_policy_spec_validation():
    assert PolicySpec(kind="turbo").validate() == []
    assert PolicySpec(kind="fixed", config=FAILSAFE_CONFIG).validate() == []
    assert any("target" in p for p in PolicySpec(kind="mpc").validate())
    assert any("target" in p for p in PolicySpec(kind="ppk").validate())
    assert any("config" in p for p in PolicySpec(kind="fixed").validate())
    assert PolicySpec(kind="greedy", target_throughput=1.0).validate() != []


@pytest.mark.parametrize(
    "op,expected",
    [(">=", True), ("<=", False), ("==", False), ("!=", True),
     (">", True), ("<", False)],
)
def test_assertion_ops(op, expected):
    assert op in ASSERTION_OPS
    assert CoverageAssertion("launches", op, 2.0).check(5.0) is expected


def test_assertion_str_scopes_sessions():
    assert str(CoverageAssertion("runs", "==", 2.0)) == "runs == 2"
    scoped = CoverageAssertion("launches", ">=", 1.0, session="svc-0")
    assert str(scoped) == "launches[svc-0] >= 1"


def test_header_round_trip():
    trace = small_trace(
        seed=7,
        enforce_tdp=True,
        assertions=(CoverageAssertion("launches", "==", 16.0),),
    )
    rebuilt = TraceHeader.from_dict(trace.header.as_dict())
    assert rebuilt == trace.header


# ----- trace serialization ----------------------------------------------------


def test_dumps_loads_byte_identity():
    trace = small_trace()
    text = trace.dumps()
    assert Trace.loads(text) == trace
    assert Trace.loads(text).dumps() == text


def test_dump_load_file_round_trip(tmp_path):
    trace = small_trace()
    path = trace.dump(str(tmp_path / "t.jsonl"))
    assert Trace.load(path) == trace


def test_loads_requires_leading_header():
    trace = small_trace()
    body = "\n".join(trace.dumps().splitlines()[1:]) + "\n"
    with pytest.raises(ValueError, match="first record must be the header"):
        Trace.loads(body)


def test_loads_rejects_unknown_record_kind():
    text = small_trace().dumps() + '{"record": "checkpoint"}\n'
    with pytest.raises(ValueError, match="unknown record kind"):
        Trace.loads(text)


def test_loads_rejects_garbage_and_empty():
    with pytest.raises(ValueError, match="invalid JSON"):
        Trace.loads("{nope}\n")
    with pytest.raises(ValueError, match="empty trace"):
        Trace.loads("\n\n")


# ----- queries ----------------------------------------------------------------


def test_applications_split_on_index_zero():
    trace = small_trace(invocations=3)
    apps = trace.applications("alt")
    assert len(apps) == 3
    assert all(app.kernels == KERNELS for app in apps)
    assert all(app.name == "alt" for app in apps)


def test_unique_kernels_dedup_by_key():
    trace = small_trace(invocations=2)
    assert trace.unique_kernels("alt") == [COMPUTE, MEMORY]


def test_with_decisions_requires_one_per_event():
    trace = small_trace()
    with pytest.raises(ValueError, match="decisions for"):
        trace.with_decisions([None])


# ----- semantic validation ----------------------------------------------------


def _problems(trace):
    return "\n".join(trace.validate())


def test_validate_accepts_small_trace():
    assert small_trace().validate() == []


def test_validate_rejects_wrong_schema():
    trace = small_trace()
    header = TraceHeader.from_dict(
        dict(trace.header.as_dict(), schema=TRACE_SCHEMA + 1)
    )
    assert "unsupported trace schema" in _problems(
        Trace(header=header, events=trace.events)
    )


def test_validate_rejects_undeclared_session():
    trace = small_trace()
    rogue = trace.events + (TraceEvent(index=0, session="ghost", spec=COMPUTE),)
    assert "session not declared" in _problems(
        Trace(header=trace.header, events=rogue)
    )


def test_validate_rejects_out_of_order_indices():
    trace = small_trace()
    skipped = trace.events[:1] + trace.events[2:]
    assert "out-of-order index" in _problems(
        Trace(header=trace.header, events=skipped)
    )


def test_validate_rejects_nonzero_first_index():
    trace = small_trace()
    assert "expected 0" in _problems(
        Trace(header=trace.header, events=trace.events[1:])
    )


def test_validate_rejects_same_key_different_spec():
    trace = small_trace()
    imposter = TraceEvent(
        index=len(KERNELS) - 1,
        session="alt",
        spec=KERNELS[-1].with_input(KERNELS[-1].input_id, work_scale=2.0),
    )
    assert "bound to two different specs" in _problems(
        Trace(header=trace.header, events=trace.events[:-1] + (imposter,))
    )


def test_validate_rejects_session_without_events():
    trace = small_trace()
    extra = trace.header.sessions + (
        SessionSpec(
            session_id="idle", app_name="idle", policy=PolicySpec(kind="turbo")
        ),
    )
    header = TraceHeader(
        name=trace.header.name,
        source=trace.header.source,
        sessions=extra,
    )
    assert "has no launch events" in _problems(
        Trace(header=header, events=trace.events)
    )


@pytest.mark.parametrize(
    "assertion,message",
    [
        (CoverageAssertion("warp_stalls", ">=", 1.0), "unknown metric"),
        (CoverageAssertion("launches", "~=", 1.0), "unknown op"),
        (CoverageAssertion("launches", ">=", 1.0, session="ghost"),
         "unknown session"),
        (CoverageAssertion("mpc_decisions", ">=", 1.0, session="alt"),
         "no per-session counter"),
    ],
)
def test_validate_rejects_malformed_assertions(assertion, message):
    trace = small_trace()
    header = TraceHeader(
        name=trace.header.name,
        source=trace.header.source,
        sessions=trace.header.sessions,
        assertions=(assertion,),
    )
    assert message in _problems(Trace(header=header, events=trace.events))


def test_global_only_metrics_are_registry_backed():
    assert GLOBAL_ONLY_METRICS <= set(ASSERTION_METRICS)


def test_ensure_valid_raises_with_trace_name():
    trace = small_trace()
    broken = Trace(header=trace.header, events=trace.events[1:])
    with pytest.raises(ValueError, match="invalid trace 'small'"):
        broken.ensure_valid()
