"""Unit tests for the simulator, traces, and metrics."""

import pytest

from repro.core.policies import FixedConfigPolicy
from repro.hardware.config import ConfigSpace, HardwareConfig
from repro.sim.metrics import (
    energy_savings_pct,
    geomean,
    gpu_energy_savings_pct,
    mean,
    performance_loss_pct,
    speedup,
)
from repro.sim.policy import Decision
from repro.sim.simulator import OverheadModel, Simulator
from repro.sim.trace import LaunchRecord, RunResult
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

KERNEL = KernelSpec("k", ScalingClass.COMPUTE, 2.0, 0.1, parallel_fraction=0.98)
APP = Application("app", "unit", Category.REGULAR, kernels=(KERNEL,) * 3, pattern="A3")
FAST = ConfigSpace().fastest()
SLOW = HardwareConfig(cpu="P7", nb="NB2", gpu="DPM0", cu=2)


def _record(index=0, time_s=1.0, gpu_j=10.0, cpu_j=5.0, insts=1e9, **kw):
    return LaunchRecord(
        index=index, kernel_key="k", config=FAST, time_s=time_s,
        gpu_energy_j=gpu_j, cpu_energy_j=cpu_j, instructions=insts, **kw,
    )


class TestOverheadModel:
    def test_zero_evaluations_free(self):
        model = OverheadModel()
        assert model.decision_time_s(Decision(config=FAST)) == 0.0

    def test_linear_in_evaluations(self):
        model = OverheadModel(seconds_per_evaluation=1e-6, fixed_seconds=1e-5)
        d10 = Decision(config=FAST, model_evaluations=10)
        d20 = Decision(config=FAST, model_evaluations=20)
        assert model.decision_time_s(d20) - model.decision_time_s(d10) == pytest.approx(1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OverheadModel().decision_time_s(Decision(config=FAST, model_evaluations=-1))


class TestSimulator:
    def test_trace_matches_app(self):
        result = Simulator().run(APP, FixedConfigPolicy(FAST))
        assert len(result) == 3
        assert [r.index for r in result.launches] == [0, 1, 2]
        assert result.instructions == pytest.approx(APP.total_instructions)

    def test_charge_overhead_flag(self):
        sim = Simulator()

        class Chatty(FixedConfigPolicy):
            def decide(self, index, note=None):
                return Decision(config=self.config, model_evaluations=10)

        charged = sim.run(APP, Chatty(FAST))
        free = sim.run(APP, Chatty(FAST), charge_overhead=False)
        assert charged.overhead_time_s > 0
        assert free.overhead_time_s == 0.0
        assert charged.overhead_energy_j > 0

    def test_slow_config_longer_run(self):
        sim = Simulator()
        fast = sim.run(APP, FixedConfigPolicy(FAST))
        slow = sim.run(APP, FixedConfigPolicy(SLOW))
        assert slow.kernel_time_s > fast.kernel_time_s


class TestRunResult:
    def test_out_of_order_append_rejected(self):
        result = RunResult(app_name="a", policy_name="p")
        with pytest.raises(ValueError):
            result.append(_record(index=1))

    def test_aggregates(self):
        result = RunResult(app_name="a", policy_name="p")
        result.append(_record(index=0, overhead_time_s=0.1,
                              overhead_cpu_energy_j=1.0, overhead_gpu_energy_j=0.5))
        result.append(_record(index=1))
        assert result.kernel_time_s == pytest.approx(2.0)
        assert result.total_time_s == pytest.approx(2.1)
        assert result.energy_j == pytest.approx(31.5)
        assert result.gpu_energy_j == pytest.approx(20.5)
        assert result.cpu_energy_j == pytest.approx(11.0)
        assert result.overhead_energy_j == pytest.approx(1.5)
        assert result.throughput == pytest.approx(2e9 / 2.1)

    def test_cumulative_throughputs(self):
        result = RunResult(app_name="a", policy_name="p")
        result.append(_record(index=0, time_s=1.0, insts=2e9))
        result.append(_record(index=1, time_s=3.0, insts=2e9))
        assert result.cumulative_throughputs() == pytest.approx([2e9, 1e9])

    def test_mean_horizon_empty(self):
        assert RunResult(app_name="a", policy_name="p").mean_horizon == 0.0


class TestMetrics:
    def _pair(self):
        ref = RunResult(app_name="a", policy_name="ref")
        ref.append(_record(index=0, time_s=2.0, gpu_j=20.0, cpu_j=20.0))
        run = RunResult(app_name="a", policy_name="x")
        run.append(_record(index=0, time_s=2.5, gpu_j=15.0, cpu_j=5.0))
        return run, ref

    def test_energy_savings(self):
        run, ref = self._pair()
        assert energy_savings_pct(run, ref) == pytest.approx(50.0)

    def test_gpu_energy_savings(self):
        run, ref = self._pair()
        assert gpu_energy_savings_pct(run, ref) == pytest.approx(25.0)

    def test_speedup_and_loss(self):
        run, ref = self._pair()
        assert speedup(run, ref) == pytest.approx(0.8)
        assert performance_loss_pct(run, ref) == pytest.approx(20.0)

    def test_app_mismatch_rejected(self):
        run, ref = self._pair()
        other = RunResult(app_name="b", policy_name="ref")
        other.append(_record(index=0))
        with pytest.raises(ValueError):
            energy_savings_pct(run, other)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])
