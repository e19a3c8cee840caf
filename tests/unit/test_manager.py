"""Unit tests for the MPC power manager lifecycle."""

import math

import pytest

from repro.core.manager import MPCPowerManager
from repro.runtime.lifecycle import PolicyState
from repro.ml.predictors import OraclePredictor
from repro.sim.simulator import Simulator
from repro.sim.turbocore import TurboCorePolicy
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

COMPUTE = KernelSpec("c", ScalingClass.COMPUTE, 4.0, 0.1, parallel_fraction=0.99)
MEMORY = KernelSpec("m", ScalingClass.MEMORY, 0.5, 0.9, parallel_fraction=0.9)
APP = Application(
    "alt", "unit", Category.IRREGULAR_REPEATING,
    kernels=(COMPUTE, MEMORY) * 4, pattern="(AB)4",
)


@pytest.fixture
def sim():
    return Simulator()


def _manager(sim, **kw):
    turbo = sim.run(APP, TurboCorePolicy())
    target = turbo.instructions / turbo.kernel_time_s
    manager = MPCPowerManager(
        target, OraclePredictor(sim.apu, APP.unique_kernels),
        overhead_model=sim.overhead, **kw,
    )
    return turbo, manager


class TestLifecycle:
    def test_first_invocation_runs_ppk(self, sim):
        _, manager = _manager(sim)
        result = sim.run(APP, manager)
        assert not manager.profiled or True  # profiling freezes on next begin_run
        assert result.launches[0].fail_safe  # no counters yet -> fail-safe
        assert all(r.horizon <= 1 for r in result.launches)

    def test_profile_frozen_after_first_run(self, sim):
        _, manager = _manager(sim)
        sim.run(APP, manager)
        sim.run(APP, manager)
        assert manager.profiled
        assert manager.search_order is not None
        assert len(manager.search_order) == len(APP)

    def test_steady_state_uses_multi_kernel_horizons(self, sim):
        _, manager = _manager(sim)
        sim.run(APP, manager)
        steady = sim.run(APP, manager)
        assert max(r.horizon for r in steady.launches) > 1

    def test_steady_state_saves_energy_vs_turbo(self, sim):
        turbo, manager = _manager(sim)
        sim.run(APP, manager)
        steady = sim.run(APP, manager)
        assert steady.energy_j < turbo.energy_j

    def test_steady_state_holds_throughput(self, sim):
        turbo, manager = _manager(sim)
        target = turbo.instructions / turbo.kernel_time_s
        sim.run(APP, manager)
        steady = sim.run(APP, manager)
        achieved = steady.instructions / steady.kernel_time_s
        assert achieved >= 0.93 * target

    def test_full_horizon_mode(self, sim):
        _, manager = _manager(sim, adaptive_horizon=False)
        sim.run(APP, manager)
        steady = sim.run(APP, manager)
        assert manager.profiled
        assert max(r.horizon for r in steady.launches) >= len(APP) // 2

    def test_search_order_stable_across_runs(self, sim):
        _, manager = _manager(sim)
        sim.run(APP, manager)
        sim.run(APP, manager)
        first_order = manager.search_order.order
        sim.run(APP, manager)
        assert manager.search_order.order == first_order

    def test_extra_launches_degrade_to_ppk(self, sim):
        _, manager = _manager(sim)
        sim.run(APP, manager)
        longer = Application(
            "alt", "unit", Category.IRREGULAR_REPEATING,
            kernels=(COMPUTE, MEMORY) * 6, pattern="(AB)6",
        )
        result = sim.run(longer, manager)
        # Launches beyond the profiled N still get decisions.
        assert len(result.launches) == 12

    def test_alpha_zero_minimizes_horizon(self, sim):
        _, manager = _manager(sim, alpha=0.0)
        sim.run(APP, manager)
        steady = sim.run(APP, manager)
        # With no overhead budget at the first kernel, H_1 = 0.
        assert steady.launches[0].horizon == 0

    def test_lifecycle_walks_profiling_frozen_mpc(self, sim):
        _, manager = _manager(sim)
        assert manager.state is PolicyState.PROFILING
        sim.run(APP, manager)
        manager.begin_run()
        assert manager.state is PolicyState.FROZEN
        manager.decide(0)
        assert manager.state is PolicyState.MPC

    def test_begin_run_resets_cursors_not_lifecycle(self, sim):
        _, manager = _manager(sim)
        sim.run(APP, manager)
        sim.run(APP, manager)
        assert manager.state is PolicyState.MPC
        manager.begin_run()
        assert manager.state is PolicyState.MPC
        assert manager.tracker.instructions == 0.0
        assert manager._horizon_gen.elapsed_s == 0.0


class TestValidation:
    def _predictor(self, sim):
        return OraclePredictor(sim.apu, APP.unique_kernels)

    @pytest.mark.parametrize(
        "target", [0.0, -1.0, -1e9, float("nan"), float("inf")]
    )
    def test_invalid_target_throughput_raises(self, sim, target):
        with pytest.raises(ValueError, match="target_throughput"):
            MPCPowerManager(target, self._predictor(sim))

    @pytest.mark.parametrize(
        "alpha", [-0.01, -5.0, float("nan"), float("inf")]
    )
    def test_invalid_alpha_raises(self, sim, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MPCPowerManager(1e9, self._predictor(sim), alpha=alpha)

    def test_error_messages_show_the_value(self, sim):
        with pytest.raises(ValueError, match="-3.0"):
            MPCPowerManager(-3.0, self._predictor(sim))
        with pytest.raises(ValueError, match="-0.5"):
            MPCPowerManager(1e9, self._predictor(sim), alpha=-0.5)

    def test_alpha_zero_remains_a_valid_ablation(self, sim):
        manager = MPCPowerManager(1e9, self._predictor(sim), alpha=0.0)
        assert math.isclose(manager.alpha, 0.0)


class TestZeroHorizonFastPath:
    UNIFORM = Application(
        "uni", "unit", Category.REGULAR,
        kernels=(COMPUTE,) * 8, pattern="A8",
    )

    def _steady(self, app, target_scale):
        # Noise-free counters: every launch of the uniform kernel must
        # bin to the same signature for the reuse path to be reachable.
        sim = Simulator(counters=CounterSynthesizer(noise=0.0))
        turbo = sim.run(app, TurboCorePolicy())
        target = target_scale * turbo.instructions / turbo.kernel_time_s
        manager = MPCPowerManager(
            target, OraclePredictor(sim.apu, app.unique_kernels),
            overhead_model=sim.overhead,
        )
        sim.run(app, manager)
        sim.run(app, manager)
        return sim, manager

    def test_same_kernel_above_target_reuses_last_config(self, monkeypatch):
        # A loose target keeps the tracker above target; with a uniform
        # app every upcoming kernel matches the one that just ran.
        sim, manager = self._steady(self.UNIFORM, target_scale=0.5)
        monkeypatch.setattr(manager._horizon_gen, "horizon", lambda index, note=None: 0)
        third = sim.run(self.UNIFORM, manager)
        # Launch 0 has no previous kernel in the run -> fail-safe; every
        # later launch reuses the previous configuration at zero cost.
        assert third.launches[0].fail_safe
        for record in third.launches[1:]:
            assert record.horizon == 0
            assert not record.fail_safe
            assert record.config == third.launches[0].config
            assert record.overhead_time_s == 0.0

    def test_kernel_transition_takes_fail_safe(self, sim, monkeypatch):
        # The alternating app changes kernels every launch, so the
        # previous configuration is never safe to reuse.
        turbo = sim.run(APP, TurboCorePolicy())
        target = 0.5 * turbo.instructions / turbo.kernel_time_s
        manager = MPCPowerManager(
            target, OraclePredictor(sim.apu, APP.unique_kernels),
            overhead_model=sim.overhead,
        )
        sim.run(APP, manager)
        sim.run(APP, manager)
        monkeypatch.setattr(manager._horizon_gen, "horizon", lambda index, note=None: 0)
        third = sim.run(APP, manager)
        assert all(r.fail_safe for r in third.launches)
        assert all(r.horizon == 0 for r in third.launches)

    def test_below_target_takes_fail_safe(self, monkeypatch):
        # An unreachable target keeps the tracker below target, so even
        # a same-kernel launch falls back to fail-safe.
        sim, manager = self._steady(self.UNIFORM, target_scale=10.0)
        monkeypatch.setattr(manager._horizon_gen, "horizon", lambda index, note=None: 0)
        third = sim.run(self.UNIFORM, manager)
        assert all(r.fail_safe for r in third.launches)


class TestOverProfileLaunches:
    def test_over_profile_launches_use_ppk_decisions(self, sim):
        _, manager = _manager(sim)
        sim.run(APP, manager)
        longer = Application(
            "alt", "unit", Category.IRREGULAR_REPEATING,
            kernels=(COMPUTE, MEMORY) * 6, pattern="(AB)6",
        )
        result = sim.run(longer, manager)
        n = len(APP)
        # Beyond the profiled N the manager degrades to PPK behaviour:
        # single-kernel horizons, never the multi-kernel MPC windows.
        assert all(r.horizon <= 1 for r in result.launches[n:])
        assert manager.state is PolicyState.MPC  # lifecycle unchanged
