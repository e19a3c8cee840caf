"""FleetNode: demand windows, budget application, slim-step and epoch protocol."""

import pytest

from repro.fleet.node import FleetNode

from tests.fleet.conftest import build_schedule_trace

pytestmark = pytest.mark.fleet


@pytest.fixture()
def hosted():
    trace = build_schedule_trace(["s"] * 8, name="node-mini")
    node = FleetNode("n")
    node.add_session(trace.session("s"), trace.unique_kernels("s"))
    return node, [(e.index, e.session, e.spec.key) for e in trace.events]


def test_demand_is_epoch_windowed(hosted):
    node, events = hosted
    node.step(events[:4])
    first = node.demand()
    assert first["node_id"] == "n"
    assert first["launches"] == 4
    assert first["power_w"] > 0
    assert first["sessions"] == 1
    node.step(events[4:])
    second = node.demand()
    assert second["launches"] == 4
    # Nothing processed since: the window must read zero, not repeat.
    assert node.demand()["launches"] == 0
    assert node.demand()["power_w"] == 0.0


def free_running_power():
    """Average power of the unbudgeted run (computed once per test)."""
    trace = build_schedule_trace(["s"] * 8, name="node-free")
    node = FleetNode("n")
    node.add_session(trace.session("s"), trace.unique_kernels("s"))
    node.step([(e.index, e.session, e.spec.key) for e in trace.events])
    return node.demand()["power_w"]


def test_budget_reaches_the_throttle_path(hosted):
    node, events = hosted
    node.set_budget(5.0)  # below the floor config: every launch throttles
    node.step(events)
    throttled = node.demand()
    # 5 W is infeasible — the throttle bottoms out at the lowest
    # config, so power lands at the hardware floor, not the budget.
    assert throttled["power_w"] < free_running_power()
    throttles = node.obs.registry.counter(
        "repro_runtime_tdp_throttles_total"
    ).total()
    assert throttles == len(events)


def test_budget_applies_to_later_arrivals():
    trace = build_schedule_trace(["s"] * 8, name="node-late")
    node = FleetNode("n")
    node.set_budget(5.0)
    node.add_session(trace.session("s"), trace.unique_kernels("s"))
    node.step([(e.index, e.session, e.spec.key) for e in trace.events])
    assert node.demand()["power_w"] < free_running_power()


def test_step_rejects_unknown_kernel_keys(hosted):
    node, _ = hosted
    with pytest.raises(KeyError):
        node.step([(0, "s", "no-such-kernel")])


def test_step_rejects_unknown_sessions(hosted):
    node, events = hosted
    index, _, key = events[0]
    with pytest.raises(KeyError):
        node.step([(index, "ghost", key)])


def test_drain_obs_resets_between_epochs(hosted):
    node, events = hosted
    node.step(events[:4])
    snapshot, spans = node.drain_obs()
    assert snapshot["metrics"]
    assert spans
    # Draining again without work ships nothing twice.
    snapshot2, spans2 = node.drain_obs()
    assert spans2 == []
    totals = {
        m["name"]: sum(s["value"] for s in m.get("series", []))
        for m in snapshot2["metrics"]
        if m["kind"] == "counter"
    }
    assert all(v == 0 for v in totals.values())


def test_epoch_is_the_node_methods_in_order():
    trace = build_schedule_trace(["s"] * 8, name="node-epoch")
    spec, kernels = trace.session("s"), trace.unique_kernels("s")
    events = [(e.index, e.session, e.spec.key) for e in trace.events]
    fused, split = FleetNode("n"), FleetNode("n")
    for budget, sessions, window in (
        (None, [(spec, kernels)], events[:4]),
        (5.0, [], events[4:]),
    ):
        split.set_budget(budget)
        for args in sessions:
            split.add_session(*args)
        expected = (split.step(window), split.demand(), split.drain_obs())
        assert fused.epoch(budget, sessions, window) == expected
        assert fused.manager.power_budget_w == budget
