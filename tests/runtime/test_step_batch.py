"""Tests for SessionManager.step_batch: batching edge cases.

The float-for-float equivalence of batched vs. streaming decisions is
asserted per adversarial family in
``tests/differential/test_step_batch.py``; here the batching machinery
itself is exercised — input validation, fault isolation of the
advisory prefetch, the bound on the sweeps an optimizer holds, and
the batching telemetry.
"""

import logging

import pytest

from repro.core.manager import MPCPowerManager
from repro.core.policies import PPKPolicy
from repro.ml.predictors import OraclePredictor
from repro.obs import make_instrumentation
from repro.runtime.events import launch_events
from repro.runtime.manager import SessionManager
from repro.workloads.suites import benchmark

from .conftest import APP, turbo_target

pytestmark = pytest.mark.runtime


def _manager(sim, obs=None, **kw):
    return SessionManager(
        apu=sim.apu, counters=sim.counters, overhead=sim.overhead, obs=obs,
        **kw,
    )


def _ppk(sim):
    return PPKPolicy(
        turbo_target(sim), OraclePredictor(sim.apu, APP.unique_kernels)
    )


def _sessions(manager, sim, ids):
    for session_id in ids:
        manager.add_session(session_id, _ppk(sim))
    return {
        session_id: list(launch_events(APP, session_id=session_id))
        for session_id in ids
    }


def test_outcomes_in_input_order_and_equal_to_streaming(sim):
    batched = _manager(sim)
    events = _sessions(batched, sim, ["a", "b", "c"])
    streaming = _manager(sim)
    _sessions(streaming, sim, ["a", "b", "c"])

    for step in range(len(APP.kernels)):
        batch = [events[sid][step] for sid in ("c", "a", "b")]
        outcomes = batched.step_batch(batch)
        assert [o.session_id for o in outcomes] == ["c", "a", "b"]
        for event, outcome in zip(batch, outcomes):
            assert outcome.record == streaming.dispatch(event).record


def test_empty_batch_is_a_noop(sim):
    assert _manager(sim).step_batch([]) == []


def test_duplicate_session_rejected_by_name(sim):
    manager = _manager(sim)
    events = _sessions(manager, sim, ["a"])
    with pytest.raises(ValueError, match="'a' appears more than once"):
        manager.step_batch([events["a"][0], events["a"][1]])


def test_unknown_session_rejected(sim):
    manager = _manager(sim)
    events = _sessions(manager, sim, ["a"])
    ghost = [e for e in launch_events(APP, session_id="ghost")]
    with pytest.raises(KeyError, match="ghost"):
        manager.step_batch([events["a"][0], ghost[0]])


def _warnings(caplog):
    return [
        record for record in caplog.records
        if record.name == "repro.runtime.manager"
        and record.levelno == logging.WARNING
    ]


def test_failing_prefetch_falls_back_to_lazy_sweep(sim, caplog):
    class ExplosivePrefetch(PPKPolicy):
        def prefetch_counters(self, index):
            raise RuntimeError("prefetch boom")

    obs = make_instrumentation()
    batched = _manager(sim, obs=obs)
    batched.add_session(
        "a",
        ExplosivePrefetch(
            turbo_target(sim), OraclePredictor(sim.apu, APP.unique_kernels)
        ),
    )
    streaming = _manager(sim)
    _sessions(streaming, sim, ["a"])
    events = list(launch_events(APP, session_id="a"))
    with caplog.at_level(logging.WARNING, logger="repro.runtime.manager"):
        for event in events:
            [outcome] = batched.step_batch([event])
            assert outcome.record == streaming.dispatch(event).record
    # The first launch starts a run, so its policy is never asked.
    fallbacks = obs.registry.counter("repro_fallbacks_total")
    assert fallbacks.series() == {
        (("reason", "RuntimeError"), ("site", "step_batch.prefetch")): len(events) - 1
    }
    assert len(_warnings(caplog)) == 1


def test_failing_group_sweep_falls_back_counted_and_logged_once(sim, caplog):
    # A deterministic fault in the stacked call only: a lone session's
    # own sweeps ask for one vector at a time.
    class StackedCallFault(OraclePredictor):
        def estimate_matrix_many(self, counters_list, table, indices=None):
            if len(counters_list) > 1:
                raise RuntimeError("stacked call fault")
            return super().estimate_matrix_many(counters_list, table, indices)

    # Sessions a and b run apps with no kernel in common, so their
    # counters never coincide and every stacked call after the first
    # batch asks for two vectors.  (Sessions of one app would share
    # them: the manager's sweep pool serves a vector that either
    # session's earlier start computed.)
    apps = {"a": APP, "b": benchmark("swat")}
    kernels = [k for app in apps.values() for k in app.unique_kernels]

    def build(predictor, obs):
        manager = _manager(sim, obs=obs)
        for session_id, app in apps.items():
            manager.add_session(
                session_id, PPKPolicy(turbo_target(sim, app), predictor)
            )
        return manager

    obs = make_instrumentation()
    batched = build(StackedCallFault(sim.apu, kernels), obs)
    clean_obs = make_instrumentation()
    streaming = build(OraclePredictor(sim.apu, kernels), clean_obs)
    streams = [
        launch_events(app, session_id=session_id)
        for session_id, app in apps.items()
    ]
    with caplog.at_level(logging.WARNING, logger="repro.runtime.manager"):
        for batch in zip(*streams):
            for event, outcome in zip(batch, batched.step_batch(batch)):
                assert outcome.record == streaming.dispatch(event).record
    series = obs.registry.counter("repro_fallbacks_total").series()
    assert set(series) == {
        (("reason", "RuntimeError"), ("site", "step_batch.group_sweep"))
    }
    assert list(series.values())[0] > 1
    assert len(_warnings(caplog)) == 1
    # Registered on the fault path only.
    names = [metric["name"] for metric in clean_obs.registry.snapshot()["metrics"]]
    assert "repro_runtime_launches_total" in names
    assert "repro_fallbacks_total" not in names


def test_held_sweeps_never_exceed_kernel_records(sim):
    # Table-IV swat: 12 kernels, 9 records.  The optimizer caches a
    # sweep per counter vector object and the extractor replaces a
    # kernel's vector each time it runs, so no more sweeps stay held
    # than the session has kernel records.
    app = benchmark("swat")
    manager = _manager(sim)
    policy = MPCPowerManager(
        turbo_target(sim, app),
        OraclePredictor(sim.apu, app.unique_kernels),
        overhead_model=sim.overhead,
    )
    manager.add_session("a", policy)
    held = []
    for _ in range(3):
        for event in launch_events(app, session_id="a"):
            manager.dispatch(event)
            held.append(len(policy.optimizer._sweeps))
            assert held[-1] <= policy.extractor.num_records
    assert max(held) > 1


def test_batching_telemetry_counts_sweeps_and_dedup(sim):
    obs = make_instrumentation()
    manager = _manager(sim, obs=obs)
    # Sessions group only when they share a predictor *instance* (and
    # lattice), so sharing one oracle is what enables dedup here.
    predictor = OraclePredictor(sim.apu, APP.unique_kernels)
    target = turbo_target(sim)
    for session_id in ("a", "b"):
        manager.add_session(session_id, PPKPolicy(target, predictor))
    events = {
        session_id: list(launch_events(APP, session_id=session_id))
        for session_id in ("a", "b")
    }
    # Step 0 decides fail-safe (no history: nothing to prefetch); step 1
    # has both sessions sweeping the same kernel's counters -> one
    # shared sweep, one dedup hit.
    manager.step_batch([events["a"][0], events["b"][0]])
    manager.step_batch([events["a"][1], events["b"][1]])
    registry = obs.registry
    assert registry.counter("repro_runtime_batched_steps_total").value() == 2
    assert registry.counter("repro_runtime_batched_launches_total").value() == 4
    assert registry.counter("repro_runtime_batched_sweeps_total").value() == 1
    assert registry.counter("repro_runtime_batched_dedup_hits_total").value() == 1
