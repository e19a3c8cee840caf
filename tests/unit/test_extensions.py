"""Unit tests for the extension switches (overhead hiding, ablations)."""

import pytest

from repro.core.manager import MPCPowerManager
from repro.core.policies import FixedConfigPolicy
from repro.ml.predictors import OraclePredictor
from repro.sim.policy import Decision
from repro.sim.simulator import Simulator
from repro.sim.turbocore import TurboCorePolicy
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

COMPUTE = KernelSpec("c", ScalingClass.COMPUTE, 4.0, 0.1, parallel_fraction=0.99)
MEMORY = KernelSpec("m", ScalingClass.MEMORY, 0.5, 0.9, parallel_fraction=0.9)
APP = Application(
    "alt", "unit", Category.IRREGULAR_REPEATING,
    kernels=(COMPUTE, MEMORY) * 4, pattern="(AB)4",
)


class _Chatty(FixedConfigPolicy):
    """Fixed-config policy that pretends to do optimizer work."""

    def decide(self, index, note=None):
        return Decision(config=self.config, model_evaluations=100)


class TestOverheadHiding:
    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            Simulator(cpu_phase_s=-1.0)

    def test_phase_hides_wall_clock_overhead(self):
        from repro.hardware.config import ConfigSpace
        config = ConfigSpace().fastest()
        worst = Simulator(cpu_phase_s=0.0).run(APP, _Chatty(config))
        hidden = Simulator(cpu_phase_s=1.0).run(APP, _Chatty(config))
        assert worst.overhead_time_s > 0.0
        assert hidden.overhead_time_s == 0.0

    def test_phase_does_not_hide_energy(self):
        from repro.hardware.config import ConfigSpace
        config = ConfigSpace().fastest()
        worst = Simulator(cpu_phase_s=0.0).run(APP, _Chatty(config))
        hidden = Simulator(cpu_phase_s=1.0).run(APP, _Chatty(config))
        assert hidden.overhead_energy_j == pytest.approx(worst.overhead_energy_j)

    def test_partial_hiding(self):
        from repro.hardware.config import ConfigSpace
        config = ConfigSpace().fastest()
        sim = Simulator(cpu_phase_s=1e-4)
        run = sim.run(APP, _Chatty(config))
        per_decision = sim.overhead.decision_time_s(
            Decision(config=config, model_evaluations=100)
        )
        expected = max(0.0, per_decision - 1e-4) * len(APP)
        assert run.overhead_time_s == pytest.approx(expected)


class TestManagerAblationFlags:
    def _steady(self, sim, **kw):
        turbo = sim.run(APP, TurboCorePolicy())
        target = turbo.instructions / turbo.kernel_time_s
        manager = MPCPowerManager(
            target, OraclePredictor(sim.apu, APP.unique_kernels),
            overhead_model=sim.overhead, **kw,
        )
        sim.run(APP, manager)
        return manager, sim.run(APP, manager)

    def test_plain_order_is_identity(self):
        sim = Simulator()
        manager, _ = self._steady(sim, use_search_order=False)
        assert manager.search_order.order == tuple(range(len(APP)))

    def test_search_order_reorders(self):
        sim = Simulator()
        manager, _ = self._steady(sim, use_search_order=True)
        assert manager.search_order.order != tuple(range(len(APP)))

    def test_no_reserve_still_runs(self):
        sim = Simulator()
        _, run = self._steady(sim, window_reserve=False)
        assert len(run.launches) == len(APP)

    def test_reserve_protects_throughput(self):
        sim = Simulator()
        turbo = sim.run(APP, TurboCorePolicy())
        target = turbo.instructions / turbo.kernel_time_s
        _, with_reserve = self._steady(sim, window_reserve=True)
        achieved = with_reserve.instructions / with_reserve.kernel_time_s
        assert achieved >= 0.97 * target
