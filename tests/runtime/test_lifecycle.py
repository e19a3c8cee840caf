"""Tests for the PROFILING -> FROZEN -> MPC lifecycle state machine."""

import pytest

from repro.runtime.lifecycle import LifecycleError, PolicyLifecycle, PolicyState

from .conftest import APP, make_manager

pytestmark = pytest.mark.runtime


class TestStateMachine:
    def test_starts_profiling(self):
        assert PolicyLifecycle().state is PolicyState.PROFILING

    def test_legal_walk(self):
        machine = PolicyLifecycle()
        machine.transition(PolicyState.FROZEN)
        assert machine.state is PolicyState.FROZEN
        machine.transition(PolicyState.MPC)
        assert machine.state is PolicyState.MPC

    @pytest.mark.parametrize("start, target", [
        (PolicyState.PROFILING, PolicyState.MPC),
        (PolicyState.PROFILING, PolicyState.PROFILING),
        (PolicyState.FROZEN, PolicyState.PROFILING),
        (PolicyState.FROZEN, PolicyState.FROZEN),
        (PolicyState.MPC, PolicyState.PROFILING),
        (PolicyState.MPC, PolicyState.FROZEN),
        (PolicyState.MPC, PolicyState.MPC),
    ])
    def test_illegal_transitions_raise(self, start, target):
        machine = PolicyLifecycle(start)
        with pytest.raises(LifecycleError, match="illegal lifecycle transition"):
            machine.transition(target)
        assert machine.state is start  # unchanged after the failed attempt

    def test_repr_names_the_state(self):
        assert "frozen" in repr(PolicyLifecycle(PolicyState.FROZEN))


class TestManagerLifecycle:
    def test_manager_walks_the_machine(self, sim):
        manager = make_manager(sim)
        assert manager.state is PolicyState.PROFILING
        sim.run(APP, manager)
        # The freeze happens when the *next* run begins, not mid-run.
        assert manager.state is PolicyState.PROFILING
        manager.begin_run()
        assert manager.state is PolicyState.FROZEN
        manager.decide(0)
        assert manager.state is PolicyState.MPC

    def test_steady_state_persists_across_runs(self, sim):
        manager = make_manager(sim)
        sim.run(APP, manager)
        sim.run(APP, manager)
        assert manager.state is PolicyState.MPC
        # A new invocation resets per-run cursors but never regresses
        # the lifecycle (transitions are one-way).
        manager.begin_run()
        assert manager.state is PolicyState.MPC
        assert manager.tracker.instructions == 0.0
        assert manager.tracker.time_s == 0.0

    def test_profiled_reflects_lifecycle(self, sim):
        manager = make_manager(sim)
        assert not manager.profiled
        sim.run(APP, manager)
        sim.run(APP, manager)
        assert manager.profiled
