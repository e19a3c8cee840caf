"""Tests for SessionRuntime: parity, streaming, and fault isolation."""

import pytest

from repro.core.policies import FixedConfigPolicy, PPKPolicy
from repro.hardware.config import FAILSAFE_CONFIG
from repro.ml.predictors import OraclePredictor, PerfPowerPredictor
from repro.runtime.events import launch_events
from repro.sim.simulator import Simulator
from repro.sim.turbocore import TurboCorePolicy

from .conftest import APP, make_manager, turbo_target

pytestmark = pytest.mark.runtime


class _RaisingPredictor(PerfPowerPredictor):
    """A predictor whose every estimate blows up."""

    def estimate_matrix_many(self, counters_list, table, indices=None):
        raise RuntimeError("predictor exploded")


class _RaisingObserver(FixedConfigPolicy):
    """A policy whose telemetry path always fails."""

    def observe(self, observation):
        raise RuntimeError("telemetry lost")


# ----- parity: every driver produces the same trace --------------------------


def _policies(sim, app=APP):
    return {
        "turbo": lambda: TurboCorePolicy(tdp_w=sim.apu.tdp_w),
        "ppk": lambda: PPKPolicy(
            turbo_target(sim, app),
            OraclePredictor(sim.apu, app.unique_kernels),
        ),
        "mpc": lambda: make_manager(sim, app),
    }


@pytest.mark.parametrize("kind", ["turbo", "ppk", "mpc"])
def test_offline_replay_matches_simulator(kind, sim):
    """sim.run and an explicit SessionRuntime produce identical traces."""
    factory = _policies(sim)[kind]
    policy = factory()
    via_sim = [sim.run(APP, policy) for _ in range(2)]
    session = sim.session(factory())
    via_session = [session.run(APP) for _ in range(2)]
    for a, b in zip(via_sim, via_session):
        assert a.launches == b.launches


@pytest.mark.parametrize("kind", ["turbo", "ppk", "mpc"])
def test_streamed_equals_offline(kind, sim):
    """Consuming launch events one by one replays sim.run exactly."""
    factory = _policies(sim)[kind]
    policy = factory()
    offline = [sim.run(APP, policy) for _ in range(2)]

    session = sim.session(factory(), app_name=APP.name)
    streamed = []
    for _ in range(2):
        outcomes = list(session.run_stream(launch_events(APP)))
        assert len(outcomes) == len(APP)
        streamed.append(session.result)
    for a, b in zip(offline, streamed):
        assert a.launches == b.launches


def test_tdp_enforcement_parity():
    """TDP throttling is identical offline and streamed."""
    sim = Simulator(enforce_tdp=True)
    offline = sim.run(APP, TurboCorePolicy(tdp_w=sim.apu.tdp_w))
    session = sim.session(TurboCorePolicy(tdp_w=sim.apu.tdp_w))
    list(session.run_stream(launch_events(APP)))
    assert session.result.launches == offline.launches


# ----- event-stream semantics -------------------------------------------------


def test_index_zero_opens_a_new_run(sim):
    session = sim.session(FixedConfigPolicy(FAILSAFE_CONFIG))
    for _ in range(3):
        list(session.run_stream(launch_events(APP)))
    assert session.stats.runs == 3
    assert session.stats.launches == 3 * len(APP)
    assert len(session.result) == len(APP)  # trace covers the last run


def test_out_of_order_event_rejected(sim):
    session = sim.session(FixedConfigPolicy(FAILSAFE_CONFIG))
    events = list(launch_events(APP))
    session.process(events[0])
    with pytest.raises(ValueError, match="out-of-order"):
        session.process(events[2])
    # The policy was never consulted for the bad event.
    assert session.stats.launches == 1


# ----- fault isolation --------------------------------------------------------


def test_raising_predictor_degrades_to_fail_safe(sim):
    """A blowing-up predictor yields a completed, fail-safed session."""
    manager = make_manager(sim)
    manager.optimizer.predictor = _RaisingPredictor()
    session = sim.session(manager, isolate_faults=True)
    result = session.run(APP)
    assert len(result) == len(APP)  # the session completed
    assert session.stats.fail_safe_fallbacks > 0
    assert "predictor exploded" in session.stats.last_error
    # Degraded launches run at the fail-safe configuration.
    assert all(
        r.config == FAILSAFE_CONFIG for r in result.launches[1:]
    )


def test_fault_isolation_off_propagates(sim):
    manager = make_manager(sim)
    manager.optimizer.predictor = _RaisingPredictor()
    session = sim.session(manager, isolate_faults=False)
    with pytest.raises(RuntimeError, match="predictor exploded"):
        session.run(APP)


def test_simulator_run_stays_fail_fast(sim):
    """The offline harness preserves its legacy fail-fast semantics."""
    manager = make_manager(sim)
    manager.optimizer.predictor = _RaisingPredictor()
    with pytest.raises(RuntimeError, match="predictor exploded"):
        sim.run(APP, manager)


def test_observe_failures_counted_and_swallowed(sim):
    session = sim.session(
        _RaisingObserver(FAILSAFE_CONFIG), isolate_faults=True
    )
    result = session.run(APP)
    assert len(result) == len(APP)
    assert session.stats.observe_failures == len(APP)
    assert session.stats.fail_safe_fallbacks == 0
    assert "telemetry lost" in session.stats.last_error


def test_fallback_outcomes_are_flagged(sim):
    manager = make_manager(sim)
    manager.optimizer.predictor = _RaisingPredictor()
    session = sim.session(manager, isolate_faults=True)
    outcomes = list(session.run_stream(launch_events(APP)))
    # Launch 0 is PPK's legitimate fail-safe (no counters yet), every
    # later decision faults in the optimizer and is degraded.
    assert not outcomes[0].fallback
    assert all(o.fallback for o in outcomes[1:])
    assert all(o.record.fail_safe for o in outcomes[1:])


def test_stats_format_mentions_fallbacks(sim):
    manager = make_manager(sim)
    manager.optimizer.predictor = _RaisingPredictor()
    session = sim.session(manager, isolate_faults=True)
    session.run(APP)
    line = session.stats.format()
    assert "by fault degradation" in line
    assert "1 run(s)" in line
