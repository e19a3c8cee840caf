"""Admission control: placement, queueing, and shedding."""

import pytest

from repro.fleet import FleetSimulator

from tests.fleet.conftest import build_schedule_trace

pytestmark = pytest.mark.fleet


def test_sessions_place_on_the_least_loaded_node():
    trace = build_schedule_trace(["a", "b", "c", "d"] * 4)
    report = FleetSimulator(trace, nodes=2, epoch_launches=4).run()
    assert report.placement == {
        "a": "node-0", "b": "node-1", "c": "node-0", "d": "node-1",
    }
    assert report.queued == 0 and report.shed == 0


def test_arrivals_beyond_capacity_queue_and_complete():
    """With room for one session, later arrivals wait their turn —
    and still process every launch with unchanged decisions."""
    schedule = ["a", "b", "c"] * 4  # b and c arrive while a is hosted
    trace = build_schedule_trace(schedule)
    report = FleetSimulator(
        trace, nodes=1, max_sessions_per_node=1, epoch_launches=6
    ).run()
    assert report.queued == 2
    assert report.shed == 0
    assert report.launches() == len(trace.events)
    # Queueing delays execution, never changes per-session decisions.
    unconstrained = FleetSimulator(trace, nodes=1).run()
    assert report.decisions == unconstrained.decisions
    counter = report.registry.counter("repro_fleet_sessions_queued_total")
    assert counter.total() == 2


def test_overflow_beyond_the_queue_sheds():
    schedule = ["a", "b", "c"] * 4
    trace = build_schedule_trace(schedule)
    report = FleetSimulator(
        trace,
        nodes=1,
        max_sessions_per_node=1,
        max_queued=1,
        epoch_launches=100,
    ).run()
    # a holds the node for the whole run, b waits in the queue, and c
    # finds both full.
    assert report.queued == 1
    assert report.shed == 1
    assert "c" not in report.decisions
    assert report.registry.counter(
        "repro_fleet_sessions_shed_total"
    ).total() == 1
    # Shed sessions shed entirely: every admitted launch still ran.
    expected = sum(1 for sid in schedule if sid != "c")
    assert report.launches() == expected


def test_negative_queue_capacity_is_rejected():
    trace = build_schedule_trace(["a", "b", "c"] * 4)
    with pytest.raises(ValueError, match="max_queued"):
        FleetSimulator(trace, nodes=1, max_sessions_per_node=1, max_queued=-1)


def test_queued_sessions_admit_in_arrival_order():
    schedule = ["a", "b", "c"] * 4
    trace = build_schedule_trace(schedule)
    report = FleetSimulator(
        trace, nodes=1, max_sessions_per_node=1, epoch_launches=8
    ).run()
    assert report.queued == 2
    assert report.launches() == len(trace.events)
    # b (first queued) ran before c: its launches appear earlier.
    assert list(report.decisions) == ["a", "b", "c"]
