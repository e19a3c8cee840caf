"""Budget safety: conservation at every epoch, throttling under caps.

The acceptance invariant: at no epoch does the sum of apportioned node
budgets exceed the global cap.  These tests re-check it from the
*report* (independently of the allocator's own conservation
assertion) and verify the budgets actually reach the throttle path.
"""

import math

import pytest

from repro.fleet import FleetSimulator

pytestmark = pytest.mark.fleet


@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_sum_of_node_budgets_never_exceeds_the_cap(corpus, nodes):
    cap_w = 60.0 * nodes
    report = FleetSimulator(
        corpus["serverless"], nodes=nodes, cap_w=cap_w, epoch_launches=8
    ).run()
    assert report.epochs, "capped run recorded no epochs"
    for record in report.epochs:
        assert record.cap_w == cap_w
        assert set(record.budgets) == {f"node-{i}" for i in range(nodes)}
        assert math.fsum(record.budgets.values()) <= cap_w, (
            f"epoch {record.epoch} oversubscribed the cap"
        )


def test_tight_cap_engages_the_throttle_path(corpus):
    """A starving cap must show up as budget throttles, not nothing."""
    trace = corpus["serverless"]
    report = FleetSimulator(
        trace, nodes=2, cap_w=40.0, epoch_launches=8
    ).run()
    throttles = report.registry.counter(
        "repro_runtime_tdp_throttles_total"
    ).total()
    assert throttles > 0
    # Total energy under the tight cap is below the uncapped run's.
    uncapped = FleetSimulator(trace, nodes=2).run()
    assert (
        report.aggregate_stats().energy_j
        < uncapped.aggregate_stats().energy_j
    )


def test_loose_cap_changes_nothing_while_nodes_stay_busy(corpus):
    """A cap above aggregate demand must leave decisions untouched.

    The contract holds for continuously-busy nodes: reclaim routes the
    whole leftover to them, so their budgets stay far above demand.
    (A node that idles an epoch keeps only its floor and pays one
    throttled epoch on wake — that ramp is deliberate allocator
    policy, covered by the tight-cap test.)
    """
    trace = corpus["phase-shift"]
    uncapped = FleetSimulator(trace, nodes=2).run()
    loose = FleetSimulator(
        trace, nodes=2, cap_w=10_000.0, epoch_launches=8
    ).run()
    assert loose.decisions == uncapped.decisions
    assert loose.stats == uncapped.stats
    # The idle node was floored, the busy node got the reclaimed rest.
    for record in loose.epochs:
        assert max(record.budgets.values()) > 9_000.0


def test_fleet_metrics_are_published(corpus):
    report = FleetSimulator(
        corpus["serverless"], nodes=2, cap_w=120.0, epoch_launches=8
    ).run()
    registry = report.registry
    assert registry.counter("repro_fleet_epochs_total").total() == len(
        report.epochs
    )
    gauge = registry.gauge("repro_fleet_node_budget_watts")
    last = report.epochs[-1].budgets
    for node_id, watts in last.items():
        assert gauge.value(node=node_id) == watts


def test_epoch_spans_cover_the_run(corpus):
    report = FleetSimulator(
        corpus["serverless"], nodes=2, cap_w=120.0, epoch_launches=8
    ).run()
    epoch_spans = [s for s in report.spans if s["name"] == "epoch"]
    assert len(epoch_spans) == len(report.epochs)
    for span, record in zip(epoch_spans, report.epochs):
        attrs = span["attributes"]
        assert attrs["epoch"] == record.epoch
        assert attrs["launches"] == record.launches
        assert attrs["cap_w"] == record.cap_w
        assert attrs["budget_total_w"] == pytest.approx(
            sum(record.budgets.values())
        )
        assert span["end_s"] == span["start_s"] + 1.0


def test_fleet_spans_validate_against_the_trace_schema(corpus):
    """Everything --trace-out writes — node launch spans and fleet
    epoch spans — matches a branch of docs/trace.schema.json."""
    import json

    from repro.obs.exporters import validate_span

    with open("docs/trace.schema.json", encoding="utf-8") as handle:
        schema = json.load(handle)
    report = FleetSimulator(
        corpus["serverless"], nodes=2, cap_w=120.0, epoch_launches=8
    ).run()
    assert report.spans
    for span in report.spans:
        assert validate_span(span, schema) == []
