"""Unit tests for the power-controller telemetry."""

import pytest

from repro.core.policies import FixedConfigPolicy
from repro.hardware.config import ConfigSpace
from repro.hardware.telemetry import PowerSample, PowerTelemetry, PowerTrace
from repro.sim.policy import Decision
from repro.sim.simulator import Simulator
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

KERNEL = KernelSpec("k", ScalingClass.COMPUTE, 4.0, 0.1, parallel_fraction=0.99)
APP = Application("t", "unit", Category.REGULAR, kernels=(KERNEL,) * 4, pattern="A4")
FAST = ConfigSpace().fastest()


class _Chatty(FixedConfigPolicy):
    def decide(self, index, note=None):
        return Decision(config=self.config, model_evaluations=500)


@pytest.fixture(scope="module")
def run():
    return Simulator().run(APP, FixedConfigPolicy(FAST))


@pytest.fixture(scope="module")
def run_with_overhead():
    return Simulator().run(APP, _Chatty(FAST))


class TestConstruction:
    def test_bad_period(self):
        with pytest.raises(ValueError):
            PowerTelemetry(period_s=0.0)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            PowerTelemetry(noise=-0.1)


class TestSampling:
    def test_sample_count_matches_duration(self, run):
        telemetry = PowerTelemetry(period_s=1e-3)
        trace = telemetry.sample(run)
        expected = int(run.total_time_s / 1e-3)
        assert abs(len(trace) - expected) <= 1

    def test_energy_integrates_to_accounted(self, run):
        telemetry = PowerTelemetry(period_s=1e-4)
        trace = telemetry.sample(run)
        assert trace.energy_j() == pytest.approx(run.energy_j, rel=0.01)
        assert trace.gpu_energy_j() == pytest.approx(run.gpu_energy_j, rel=0.01)

    def test_all_samples_are_kernel_phase_without_overhead(self, run):
        trace = PowerTelemetry(period_s=1e-3).sample(run)
        assert trace.phase_fraction("kernel") == 1.0

    def test_manager_phases_visible_with_overhead(self, run_with_overhead):
        trace = PowerTelemetry(period_s=1e-5).sample(run_with_overhead)
        assert trace.phase_fraction("manager") > 0.0
        manager_samples = [s for s in trace.samples if s.phase == "manager"]
        kernel_samples = [s for s in trace.samples if s.phase == "kernel"]
        # The optimizer phase draws much less power than kernels.
        assert max(s.total_power_w for s in manager_samples) < min(
            s.total_power_w for s in kernel_samples
        )

    def test_kernel_keys_attached(self, run):
        trace = PowerTelemetry(period_s=1e-3).sample(run)
        assert all(s.kernel_key == "k" for s in trace.samples)

    def test_sensor_noise(self, run):
        clean = PowerTelemetry(period_s=1e-3, noise=0.0).sample(run)
        noisy = PowerTelemetry(period_s=1e-3, noise=0.05, seed=3).sample(run)
        assert clean.samples[0].gpu_power_w != noisy.samples[0].gpu_power_w
        # Noise is zero-mean: integrated energy stays close.
        assert noisy.energy_j() == pytest.approx(clean.energy_j(), rel=0.05)

    def test_timestamps_monotone(self, run):
        trace = PowerTelemetry(period_s=1e-3).sample(run)
        times = [s.time_s for s in trace.samples]
        assert times == sorted(times)

    def test_as_arrays(self, run):
        trace = PowerTelemetry(period_s=1e-3).sample(run)
        times, gpu, cpu = trace.as_arrays()
        assert times.shape == gpu.shape == cpu.shape == (len(trace),)


class TestTraceStats:
    def test_empty_trace(self):
        trace = PowerTrace(samples=[], period_s=1e-3)
        assert trace.duration_s == 0.0
        assert trace.mean_power_w() == 0.0
        assert trace.peak_power_w() == 0.0
        assert trace.phase_fraction("kernel") == 0.0

    def test_peak_at_least_mean(self, run):
        trace = PowerTelemetry(period_s=1e-3).sample(run)
        assert trace.peak_power_w() >= trace.mean_power_w()

    def test_sample_total(self):
        sample = PowerSample(0.0, 30.0, 20.0, "kernel", "k")
        assert sample.total_power_w == 50.0
