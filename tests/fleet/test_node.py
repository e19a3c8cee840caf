"""FleetNode: demand windows, budget application, slim-step and epoch
protocol, and the predictors and sweeps its sessions share."""

import pytest

from repro.experiments import bench_fleet
from repro.fleet import FleetSimulator
from repro.fleet.node import FleetNode
from repro.hardware.apu import APUModel
from repro.ml import predictors
from repro.ml.predictors import OraclePredictor

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


@pytest.mark.parametrize("predictor", ["oracle", "forest"])
def test_sessions_of_one_spec_share_one_predictor(predictor, monkeypatch):
    # The forest is stubbed, so nothing trains: one call per forest.
    forests = []

    def train_predictor(apu=None, cache_dir=None, **kwargs):
        forests.append(OraclePredictor(apu, trace.unique_kernels("a")))
        return forests[-1]

    monkeypatch.setattr(predictors, "train_predictor", train_predictor)
    trace = build_schedule_trace(
        ["a", "b", "c"] * 6, name="node-shared", predictor=predictor
    )
    node = FleetNode("n")
    for session_id in ("a", "b", "c"):
        node.add_session(trace.session(session_id), trace.unique_kernels(session_id))
    node.step([(e.index, e.session, e.spec.key) for e in trace.events])
    optimizers = [
        node.manager.session(session_id).policy.optimizer
        for session_id in ("a", "b", "c")
    ]
    assert len({id(optimizer.predictor) for optimizer in optimizers}) == 1
    assert len({id(optimizer.pool) for optimizer in optimizers}) == 1
    assert len(forests) == (1 if predictor == "forest" else 0)
    # A migrated-in session of the same spec joins them.
    node.remove_session("c")
    node.add_session(trace.session("c"), trace.unique_kernels("c"))
    assert node.manager.session("c").policy.optimizer.predictor is optimizers[0].predictor
    assert len(forests) == (1 if predictor == "forest" else 0)


def test_bench_trace_evaluates_each_node_kernel_once(monkeypatch):
    # The fleet benchmark's trace: 11 oracle sessions of one kernel
    # pair on 2 nodes.  One oracle per node and one lattice table per
    # process leave one ground-truth matrix per (node, kernel).
    calls = []
    execute_matrix = APUModel.execute_matrix

    def counting(self, spec, table):
        calls.append((id(self), spec.key))
        return execute_matrix(self, spec, table)

    monkeypatch.setattr(APUModel, "execute_matrix", counting)
    trace = bench_fleet.bench_trace(0, quick=True)
    nodes = 2
    FleetSimulator(
        trace,
        nodes=nodes,
        cap_w=bench_fleet.CAP_FRACTIONS["tight"] * APUModel().tdp_w * nodes,
        epoch_launches=32,
        transport="inline",
    ).run()
    assert len(calls) == 4
    assert len(set(calls)) == 4
