"""Unit tests for the power and thermal models."""

import pytest

from repro.hardware.apu import APUModel
from repro.hardware.config import HardwareConfig
from repro.hardware.power import PowerModel, PowerModelParams
from repro.hardware.thermal import ThermalModel
from repro.workloads.kernel import KernelSpec, ScalingClass

KERNEL = KernelSpec("k", ScalingClass.COMPUTE, 10.0, 0.1, parallel_fraction=0.99)


@pytest.fixture
def power():
    return PowerModel()


def _breakdown(power, config):
    return APUModel(power=power).kernel_power(KERNEL, config)


def _settled(thermal, power_w):
    """(temperature, leakage factor) with ``power_w`` and no leakage."""
    temp, factor = thermal.solve_many(power_w, 0.0)
    return float(temp), float(factor)


def _power_at(thermal, temperature_c):
    """The leakage-free chip power that settles at ``temperature_c``."""
    return (temperature_c - thermal.ambient_c) / thermal.theta_c_per_w


class TestThermalModel:
    def test_temperature_linear_in_power(self):
        thermal = ThermalModel()
        assert _settled(thermal, 0.0)[0] == thermal.ambient_c
        assert _settled(thermal, 100.0)[0] == pytest.approx(
            thermal.ambient_c + 100.0 * thermal.theta_c_per_w
        )

    def test_leakage_factor_reference(self):
        thermal = ThermalModel()
        reference = _power_at(thermal, thermal.reference_c)
        assert _settled(thermal, reference)[1] == pytest.approx(1.0)

    def test_leakage_grows_with_temperature(self):
        thermal = ThermalModel()
        hot = _settled(thermal, _power_at(thermal, 90.0))[1]
        cool = _settled(thermal, _power_at(thermal, 50.0))[1]
        assert hot > cool

    def test_leakage_factor_floor(self):
        assert _settled(ThermalModel(ambient_c=-1000.0), 0.0)[1] == pytest.approx(0.5)

    def test_fixed_point_consistency(self):
        thermal = ThermalModel()
        temp, factor = thermal.solve_many(40.0, 8.0, iterations=10)
        assert temp == pytest.approx(
            thermal.ambient_c + thermal.theta_c_per_w * (40.0 + 8.0 * factor), abs=0.05
        )
        assert factor == pytest.approx(
            1.0 + thermal.leakage_tc_per_c * (temp - thermal.reference_c), abs=0.01
        )


class TestCpuPower:
    def test_higher_pstate_draws_more(self, power):
        p1 = power.cpu_power(HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8))
        p7 = power.cpu_power(HardwareConfig(cpu="P7", nb="NB0", gpu="DPM4", cu=8))
        assert p1 > 2.5 * p7

    def test_busy_cores_bounds(self, power):
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        with pytest.raises(ValueError):
            power.cpu_power(config, busy_cores=5)

    def test_more_busy_cores_more_power(self, power):
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        assert power.cpu_power(config, busy_cores=4) > power.cpu_power(config, busy_cores=1)


class TestGpuPower:
    def test_power_grows_with_cu(self, power):
        small = _breakdown(power, HardwareConfig(cpu="P5", nb="NB0", gpu="DPM4", cu=2))
        big = _breakdown(power, HardwareConfig(cpu="P5", nb="NB0", gpu="DPM4", cu=8))
        assert big.gpu_w > small.gpu_w

    def test_power_grows_with_dpm(self, power):
        slow = _breakdown(power, HardwareConfig(cpu="P5", nb="NB3", gpu="DPM0", cu=8))
        fast = _breakdown(power, HardwareConfig(cpu="P5", nb="NB3", gpu="DPM4", cu=8))
        assert fast.gpu_w > 2.0 * slow.gpu_w

    def test_gated_cus_save_leakage(self, power):
        leak2 = _breakdown(power, HardwareConfig(cpu="P5", nb="NB3", gpu="DPM0", cu=2))
        leak8 = _breakdown(power, HardwareConfig(cpu="P5", nb="NB3", gpu="DPM0", cu=8))
        assert leak8.gpu_leakage_w > leak2.gpu_leakage_w

    def test_shared_rail_blocks_gpu_power_savings(self, power):
        # At NB0 the rail stays at the NB voltage even at DPM0.
        nb0 = _breakdown(power, HardwareConfig(cpu="P5", nb="NB0", gpu="DPM0", cu=8))
        nb3 = _breakdown(power, HardwareConfig(cpu="P5", nb="NB3", gpu="DPM0", cu=8))
        assert nb0.gpu_leakage_w > nb3.gpu_leakage_w

    def test_breakdown_totals(self, power):
        config = HardwareConfig(cpu="P3", nb="NB1", gpu="DPM2", cu=6)
        breakdown = _breakdown(power, config)
        assert breakdown.total_w == pytest.approx(breakdown.gpu_w + breakdown.cpu_w)
        assert breakdown.gpu_w == pytest.approx(
            breakdown.gpu_dynamic_w + breakdown.gpu_leakage_w + breakdown.nb_w
        )


class TestManagerPower:
    def test_gpu_idles_during_optimization(self, power):
        manager = power.manager_power(HardwareConfig(cpu="P5", nb="NB0", gpu="DPM0", cu=2))
        assert manager.gpu_dynamic_w == 0.0
        assert manager.gpu_w < 5.0  # idle leakage only

    def test_within_tdp(self, power):
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        assert _breakdown(power, config).total_w <= power.params.tdp_w


class TestCalibration:
    def test_chip_power_in_realistic_envelope(self, power):
        full = _breakdown(power, HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8))
        assert 40.0 < full.total_w < PowerModelParams().tdp_w

    def test_thermal_coupling_cpu_to_gpu(self, power):
        # Lowering the CPU P-state slightly reduces GPU leakage via
        # die temperature (Section II-A of the paper).
        hot = _breakdown(power, HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8))
        cool = _breakdown(power, HardwareConfig(cpu="P7", nb="NB0", gpu="DPM4", cu=8))
        assert cool.gpu_leakage_w < hot.gpu_leakage_w
        assert cool.temperature_c < hot.temperature_c
