"""Batched stepping vs. streaming dispatch, differentially, per family.

``SessionManager.step_batch`` stacks the lattice sweeps of many
sessions' pending decisions into shared ``estimate_matrix_many`` calls,
then dispatches normally from the preloaded estimates.  Its contract is
*exact* transparency: decisions, per-session statistics, evaluation
charges, and per-decision telemetry must be float-for-float what
one-at-a-time streaming produces — the preloaded rows are the same
floats each session's own lazy sweep would have computed.

Checked here on every adversarial scenario family and on the stamped
golden traces (which step through ``step_batch`` against their
recorded decision sequences and coverage assertions).
"""

import os

import pytest

from repro.workloads.traces import FAMILIES, Trace, TraceReplayer, outcome_decision
from tests.batched_replay import replay_batched

from .golden.generate import GOLDEN_DIR, GOLDEN_FAMILIES

pytestmark = pytest.mark.traces


def _metric_lines(registry):
    """Registry snapshot rows, minus step_batch's own bookkeeping.

    The four ``repro_runtime_batched_*`` counters exist only on the
    batched driver by design; everything else must match streaming.
    """
    return sorted(
        (
            metric
            for metric in registry.snapshot()["metrics"]
            if "batched" not in metric["name"]
        ),
        key=lambda metric: str(metric["name"]),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_replay_matches_streaming(corpus, family):
    trace = corpus[family]
    streaming = TraceReplayer(trace, check=False).replay()
    batched = replay_batched(trace)

    assert len(batched.outcomes) == len(streaming.outcomes)
    for ours, theirs in zip(batched.outcomes, streaming.outcomes):
        assert ours.session_id == theirs.session_id
        assert ours.record == theirs.record
        assert outcome_decision(ours) == outcome_decision(theirs)

    assert batched.stats.keys() == streaming.stats.keys()
    for session_id in streaming.stats:
        assert (
            batched.stats[session_id].as_dict()
            == streaming.stats[session_id].as_dict()
        ), session_id


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_replay_telemetry_matches_streaming(corpus, family):
    # Eval charging parity: sweeps served from a preload must charge
    # batches/rows — and every other counter — exactly as the lazy path.
    trace = corpus[family]
    streaming = TraceReplayer(trace, check=False).replay()
    batched = replay_batched(trace)
    assert _metric_lines(batched.registry) == _metric_lines(streaming.registry)


@pytest.mark.parametrize("family", GOLDEN_FAMILIES)
def test_golden_traces_replay_batched_float_exactly(family):
    trace = Trace.load(os.path.join(GOLDEN_DIR, f"{family}.jsonl"))
    report = replay_batched(trace)
    assert [outcome_decision(o) for o in report.outcomes] == [
        event.decision for event in trace.events
    ]
    for assertion in trace.header.assertions:
        assert assertion.check(
            report.metric(assertion.metric, assertion.session)
        ), assertion
