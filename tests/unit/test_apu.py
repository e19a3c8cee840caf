"""Unit tests for the APU facade and Measurement telemetry."""

import dataclasses
import pickle
import weakref

import numpy as np
import pytest

from repro.engine.fingerprint import describe
from repro.hardware import apu as apu_module
from repro.hardware.apu import PART_TABLE, APUModel, Measurement
from repro.hardware.config import FAILSAFE_CONFIG, HardwareConfig
from repro.hardware.power import PowerModel, PowerModelParams
from repro.ml.dataset import build_dataset
from repro.workloads.generator import KernelPopulationGenerator
from repro.workloads.kernel import KernelSpec, ScalingClass
from repro.workloads.suites import all_benchmarks, benchmark

KERNEL = KernelSpec("k", ScalingClass.COMPUTE, 5.0, 0.2, parallel_fraction=0.98)
BASE = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)


@pytest.fixture
def apu():
    return APUModel()


class TestMeasurement:
    def test_energy_decomposition(self):
        m = Measurement(time_s=2.0, gpu_power_w=30.0, cpu_power_w=20.0, temperature_c=70.0)
        assert m.total_power_w == 50.0
        assert m.gpu_energy_j == 60.0
        assert m.cpu_energy_j == 40.0
        assert m.energy_j == 100.0


class TestExecute:
    def test_deterministic(self, apu):
        first = apu.execute(KERNEL, BASE)
        second = apu.execute(KERNEL, BASE)
        assert first == second

    def test_slower_config_longer_time(self, apu):
        slow = apu.execute(KERNEL, HardwareConfig(cpu="P1", nb="NB0", gpu="DPM0", cu=2))
        assert slow.time_s > apu.execute(KERNEL, BASE).time_s

    def test_kernel_energy_matches_measurement(self, apu):
        m = apu.execute(KERNEL, BASE)
        assert apu.kernel_energy(KERNEL, BASE) == pytest.approx(m.energy_j)

    def test_energy_vs_time_tradeoff_exists(self, apu):
        # Some slower configuration must save energy, else DVFS is moot.
        base = apu.execute(KERNEL, BASE)
        cheaper = apu.execute(
            KERNEL, HardwareConfig(cpu="P7", nb="NB3", gpu="DPM2", cu=8)
        )
        assert cheaper.energy_j < base.energy_j

    def test_cpu_state_does_not_affect_kernel_time(self, apu):
        fast_cpu = apu.execute(KERNEL, BASE)
        slow_cpu = apu.execute(KERNEL, BASE.replace(cpu="P7"))
        assert fast_cpu.time_s == pytest.approx(slow_cpu.time_s)
        assert slow_cpu.cpu_power_w < fast_cpu.cpu_power_w


class TestManagerMeasurement:
    def test_charges_requested_time(self, apu):
        m = apu.manager_measurement(0.01, BASE)
        assert m.time_s == 0.01
        assert m.cpu_power_w > 0
        assert m.gpu_power_w > 0  # idle leakage

    def test_rejects_negative_time(self, apu):
        with pytest.raises(ValueError):
            apu.manager_measurement(-1.0, BASE)

    def test_manager_power_below_kernel_power(self, apu):
        kernel = apu.execute(KERNEL, BASE)
        manager = apu.manager_measurement(0.01, BASE)
        assert manager.total_power_w < kernel.total_power_w


class TestConstruction:
    def test_with_params(self):
        params = PowerModelParams(tdp_w=65.0)
        apu = APUModel(power=PowerModel(params))
        assert apu.tdp_w == 65.0

    def test_within_tdp(self, apu):
        assert apu.kernel_power(KERNEL, BASE).total_w <= apu.tdp_w
        tiny = APUModel(power=PowerModel(PowerModelParams(tdp_w=10.0)))
        assert tiny.kernel_power(KERNEL, BASE).total_w > tiny.tdp_w


#: Whole-table evaluations by model and spec, each computed once.
_TABLES = weakref.WeakKeyDictionary()


def _direct(apu, spec, config):
    """(measurement, power) of ``config``'s row in an unmemoized whole-table evaluation."""
    per_spec = _TABLES.setdefault(apu, {})
    if spec not in per_spec:
        timing = apu.timing.kernel_timing_matrix(spec, PART_TABLE)
        per_spec[spec] = (
            timing.total_time_s,
            apu.power.kernel_power_matrix(PART_TABLE, timing, spec.activity_factor),
        )
    times, power = per_spec[spec]
    row = PART_TABLE.configs.index(config)
    breakdown = power.breakdown(row)
    measurement = Measurement(
        time_s=float(times[row]),
        gpu_power_w=breakdown.gpu_w,
        cpu_power_w=breakdown.cpu_w,
        temperature_c=breakdown.temperature_c,
    )
    return measurement, breakdown


def _direct_manager(apu, time_s, config):
    breakdown = apu.power.manager_power(config)
    return Measurement(
        time_s=time_s,
        gpu_power_w=breakdown.gpu_w,
        cpu_power_w=breakdown.cpu_w,
        temperature_c=breakdown.temperature_c,
    )


def _throttle_space_configs():
    """The 560 configurations the TDP throttle can step through."""
    return list(PART_TABLE.configs)


class TestGroundTruthMemo:
    """``execute``, ``kernel_power`` and ``manager_measurement`` memoize
    per model; every hit must be the floats a fresh evaluation gives."""

    def test_repeated_calls_equal_a_direct_evaluation(self):
        apu = APUModel()
        configs = _throttle_space_configs()
        assert len(configs) == 560
        cross = [
            config for config in configs
            if sum(
                getattr(config, knob) != getattr(FAILSAFE_CONFIG, knob)
                for knob in ("cpu", "nb", "gpu", "cu")
            ) <= 1
        ]
        rng = np.random.default_rng(26)
        sample = [configs[i] for i in rng.choice(len(configs), 24, replace=False)]
        specs = sorted(
            {spec for app in all_benchmarks() for spec in app.unique_kernels},
            key=lambda spec: spec.key,
        )
        for spec in specs:
            for config in cross + sample:
                measurement, breakdown = _direct(apu, spec, config)
                for _ in range(2):  # a miss, then a hit
                    assert apu.kernel_power(spec, config) == breakdown
                    assert apu.execute(spec, config) == measurement
        for config in cross + sample:
            for time_s in (0.0, 0.004, 0.004, 1.5):
                assert apu.manager_measurement(time_s, config) == _direct_manager(
                    apu, time_s, config
                )

    def test_specs_sharing_a_key_are_evaluated_apart(self, apu):
        heavier = dataclasses.replace(KERNEL, compute_work=KERNEL.compute_work * 3)
        assert heavier.key == KERNEL.key
        for spec in (KERNEL, heavier, KERNEL, heavier):
            measurement, breakdown = _direct(apu, spec, BASE)
            assert apu.execute(spec, BASE) == measurement
            assert apu.kernel_power(spec, BASE) == breakdown
        assert apu.execute(KERNEL, BASE) != apu.execute(heavier, BASE)

    def test_models_with_other_params_share_no_entries(self):
        default = APUModel()
        hotter = APUModel(
            power=PowerModel(PowerModelParams(gpu_dyn_w_per_cu_v2ghz=4.0))
        )
        for model in (default, hotter, default, hotter):
            measurement, breakdown = _direct(model, KERNEL, BASE)
            assert model.execute(KERNEL, BASE) == measurement
            assert model.kernel_power(KERNEL, BASE) == breakdown
            assert model.manager_measurement(0.01, BASE) == _direct_manager(
                model, 0.01, BASE
            )
        assert default.execute(KERNEL, BASE) != hotter.execute(KERNEL, BASE)
        idler = APUModel(power=PowerModel(PowerModelParams(gpu_idle_leak_w=3.0)))
        for model in (default, idler, default, idler):
            assert model.manager_measurement(0.01, BASE) == _direct_manager(
                model, 0.01, BASE
            )
        assert (
            default.manager_measurement(0.01, BASE)
            != idler.manager_measurement(0.01, BASE)
        )

    def test_memo_leaves_pickle_and_description_unchanged(self):
        apu = APUModel()
        before = (pickle.dumps(apu), describe(apu))
        for config in _throttle_space_configs()[:40]:
            apu.execute(KERNEL, config)
            apu.kernel_power(KERNEL, config)
            apu.manager_measurement(0.01, config)
        assert (pickle.dumps(apu), describe(apu)) == before

    def test_the_memos_are_bounded_and_stay_exact(self):
        apu = APUModel()
        configs = _throttle_space_configs()
        specs = benchmark("hybridsort").unique_kernels
        assert len(specs) * len(configs) > apu_module._MEMO_BOUND
        for spec in specs:
            for i, config in enumerate(configs):
                measurement = apu.execute(spec, config)
                if i % 37 == 0:
                    assert measurement == _direct(apu, spec, config)[0]
                assert len(apu_module._LAUNCHES[apu]) <= apu_module._MEMO_BOUND
        for spec in (specs[0], specs[-1]):
            for config in (configs[0], configs[-1]):
                assert apu.execute(spec, config) == _direct(apu, spec, config)[0]
                assert apu.kernel_power(spec, config) == _direct(apu, spec, config)[1]

    def test_the_manager_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(apu_module, "_MEMO_BOUND", 16)
        apu = APUModel()
        configs = _throttle_space_configs()
        for config in configs[:50] + configs[:50]:
            assert apu.manager_measurement(0.01, config) == _direct_manager(
                apu, 0.01, config
            )
            assert len(apu_module._MANAGER_POWER[apu]) <= 16

    def test_characterizing_a_population_passes_through(self):
        # Training reads every (kernel, configuration) pair once, from
        # whole-table evaluations: it adds no launch entry.
        apu = APUModel()
        kernels = KernelPopulationGenerator(seed=5).population(14)
        dataset = build_dataset(kernels, apu=apu)
        assert len(dataset.log_time) > apu_module._MEMO_BOUND
        assert not apu_module._LAUNCHES.get(apu)
