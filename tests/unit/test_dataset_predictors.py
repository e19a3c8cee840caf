"""Unit tests for the characterization dataset and predictor facades."""

import pickle

import numpy as np
import pytest

from repro.engine.fingerprint import describe
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace, HardwareConfig
from repro.hardware.table import ConfigTable
from repro.ml.dataset import FEATURE_NAMES, build_dataset, build_features
from repro.ml.errors import SyntheticErrorPredictor, half_normal_sigma
from repro.ml.predictors import (
    CpuPowerModel,
    KernelEstimate,
    OraclePredictor,
    train_predictor,
)
from repro.workloads.counters import CounterSynthesizer, CounterVector
from repro.workloads.suites import all_benchmarks
from repro.workloads.kernel import KernelSpec, ScalingClass

KERNELS = [
    KernelSpec("a", ScalingClass.COMPUTE, 5.0, 0.1, parallel_fraction=0.99),
    KernelSpec("b", ScalingClass.MEMORY, 0.5, 1.0, parallel_fraction=0.9),
]

SMALL_SPACE = ConfigSpace(
    cpu_states=("P7", "P1"), nb_states=("NB3", "NB0"),
    gpu_states=("DPM0", "DPM4"), cu_counts=(2, 8),
)


class _CountingAPU(APUModel):
    """Logs every ground-truth matrix evaluation."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def execute_matrix(self, spec, table, indices=None):
        self.executed.append((spec.key, indices))
        return super().execute_matrix(spec, table, indices)


@pytest.fixture(scope="module")
def apu():
    return APUModel()


class TestFeatures:
    def test_feature_vector_length(self):
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        features = build_features(counters, config)
        assert features.shape == (len(FEATURE_NAMES),)

    def test_config_features_tail(self):
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        config = HardwareConfig(cpu="P5", nb="NB2", gpu="DPM2", cu=4)
        features = build_features(counters, config)
        assert features[-1] == 4.0  # cu_count
        assert features[-3] == pytest.approx(0.553)  # gpu freq


class TestDataset:
    def test_shapes(self, apu):
        dataset = build_dataset(KERNELS, apu=apu, space=SMALL_SPACE, seed=1)
        expected = len(KERNELS) * len(SMALL_SPACE)
        assert len(dataset) == expected
        assert dataset.X.shape == (expected, len(FEATURE_NAMES))
        assert dataset.log_time.shape == (expected,)
        assert dataset.kernel_keys.count("a") == len(SMALL_SPACE)

    def test_empty_kernels_rejected(self, apu):
        with pytest.raises(ValueError):
            build_dataset([], apu=apu, space=SMALL_SPACE)

    def test_time_property_inverts_log(self, apu):
        dataset = build_dataset(KERNELS, apu=apu, space=SMALL_SPACE, seed=1)
        assert np.allclose(np.log(dataset.time_s), dataset.log_time)

    def test_noise_free_targets_match_ground_truth(self, apu):
        dataset = build_dataset(
            KERNELS, apu=apu, space=SMALL_SPACE, time_noise=0.0,
            power_noise=0.0, seed=1,
        )
        config = SMALL_SPACE.all_configs()[0]
        truth = apu.execute(KERNELS[0], config)
        assert dataset.time_s[0] == pytest.approx(truth.time_s)
        assert dataset.gpu_power[0] == pytest.approx(truth.gpu_power_w)


class TestCpuPowerModel:
    def test_calibration_accuracy(self, apu):
        model = CpuPowerModel.calibrate(apu)
        for pstate in ("P1", "P4", "P7"):
            config = HardwareConfig(cpu=pstate, nb="NB0", gpu="DPM4", cu=8)
            truth = apu.power.cpu_power(config, busy_cores=1)
            assert model.predict(config) == pytest.approx(truth, rel=0.05)

    def test_monotone_in_pstate(self, apu):
        model = CpuPowerModel.calibrate(apu)
        base = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        assert model.predict(base) > model.predict(base.replace(cpu="P7"))


class TestKernelEstimate:
    def test_energy(self):
        estimate = KernelEstimate(time_s=2.0, gpu_power_w=10.0, cpu_power_w=5.0)
        assert estimate.energy_j == pytest.approx(30.0)
        assert estimate.gpu_energy_j == pytest.approx(20.0)


class TestOraclePredictor:
    def test_exact_prediction(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[1])
        config = HardwareConfig(cpu="P3", nb="NB1", gpu="DPM2", cu=6)
        estimate = oracle.estimate(counters, config)
        truth = apu.execute(KERNELS[1], config)
        assert estimate.time_s == pytest.approx(truth.time_s)
        assert estimate.gpu_power_w == pytest.approx(truth.gpu_power_w)

    def test_resolves_despite_noise(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        noisy = CounterSynthesizer(noise=0.05, seed=2).observe(KERNELS[0])
        assert oracle.resolve(noisy).key == "a"

    def test_requires_population(self, apu):
        with pytest.raises(ValueError):
            OraclePredictor(apu, [])

    def test_one_ground_truth_matrix_per_kernel_and_table(self):
        apu = _CountingAPU()
        oracle = OraclePredictor(apu, KERNELS)
        synthesizer = CounterSynthesizer(noise=0.0)
        a, b = (synthesizer.nominal(spec) for spec in KERNELS)
        table = ConfigTable(SMALL_SPACE)
        full = oracle.estimate_matrix_many([a, b], table)
        for rows in ([0], [5, 1, 5], []):
            indices = np.asarray(rows, dtype=np.intp)
            for counters, whole in ((b, full[1]), (a, full[0])):
                part = oracle.estimate_matrix(counters, table, indices)
                assert part.times_s.tolist() == whole.times_s[indices].tolist()
                assert part.gpu_power_w.tolist() == whole.gpu_power_w[indices].tolist()
                assert part.cpu_power_w.tolist() == whole.cpu_power_w[indices].tolist()
        assert apu.executed == [("a", None), ("b", None)]
        # Another table is another matrix.
        oracle.estimate_matrix(a, ConfigTable(SMALL_SPACE), np.asarray([2]))
        assert apu.executed == [("a", None), ("b", None), ("a", None)]

    def test_matrix_memo_is_read_only_and_outside_the_instance(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        pickled = pickle.dumps(oracle)
        described = describe(oracle)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        batch = oracle.estimate_matrix(counters, ConfigTable(SMALL_SPACE))
        assert oracle.resolve(counters).key == "a"
        assert pickle.dumps(oracle) == pickled
        assert describe(oracle) == described
        with pytest.raises(ValueError):
            batch.times_s[0] = 0.0

    def test_repeated_fills_resolve_a_vector_once(self, apu, monkeypatch):
        oracle = OraclePredictor(apu, KERNELS)
        other = OraclePredictor(apu, KERNELS[::-1])
        counters = CounterSynthesizer(noise=0.05, seed=3).observe(KERNELS[1])
        table = ConfigTable(SMALL_SPACE)
        resolutions = []
        as_array = CounterVector.as_array

        def counting_as_array(vector):
            resolutions.append(vector)
            return as_array(vector)

        monkeypatch.setattr(CounterVector, "as_array", counting_as_array)
        for rows in ([0], [1, 2], [3], None):
            indices = None if rows is None else np.asarray(rows, dtype=np.intp)
            oracle.estimate_matrix(counters, table, indices)
        assert oracle.resolve(counters).key == "b"
        assert resolutions == [counters]
        # Resolution is per oracle: another population resolves afresh.
        assert other.resolve(counters).key == "b"
        assert resolutions == [counters, counters]

    def test_resolution_matches_the_nearest_kernel_formula(self, apu):
        for app in all_benchmarks():
            oracle = OraclePredictor(apu, app.unique_kernels)
            nominal = np.vstack([
                CounterSynthesizer(noise=0.0).nominal(k).as_array()
                for k in app.unique_kernels
            ])
            scale = np.maximum(np.abs(nominal), 1e-9)
            observe = CounterSynthesizer(noise=0.05, seed=11).observe
            for kernel in app.unique_kernels:
                counters = observe(kernel)
                distance = np.sum(
                    ((nominal - counters.as_array()) / scale) ** 2, axis=1
                )
                expected = int(np.argmin(distance))
                assert oracle._kernel_index(counters) == expected
                assert oracle._kernel_index(counters) == expected


class TestTrainPredictor:
    def test_small_training_run(self, apu, tmp_path):
        predictor = train_predictor(
            apu=apu, kernels=KERNELS, space=SMALL_SPACE,
            n_estimators=4, max_depth=6, cache_dir=str(tmp_path),
        )
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        estimate = predictor.estimate(counters, config)
        assert estimate.time_s > 0
        assert estimate.gpu_power_w > 0

    def test_cache_roundtrip(self, apu, tmp_path):
        kwargs = dict(
            apu=apu, kernels=KERNELS, space=SMALL_SPACE,
            n_estimators=3, max_depth=5, cache_dir=str(tmp_path),
        )
        first = train_predictor(**kwargs)
        second = train_predictor(**kwargs)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        assert first.estimate(counters, config) == second.estimate(counters, config)
        assert any(tmp_path.iterdir())

    def test_batch_matches_single(self, apu, tmp_path):
        predictor = train_predictor(
            apu=apu, kernels=KERNELS, space=SMALL_SPACE,
            n_estimators=3, max_depth=5, cache_dir=str(tmp_path),
        )
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[1])
        configs = SMALL_SPACE.all_configs()[:4]
        batch = predictor.estimate_batch(counters, configs)
        singles = [predictor.estimate(counters, c) for c in configs]
        for b, s in zip(batch, singles):
            assert b.time_s == pytest.approx(s.time_s)
            assert b.gpu_power_w == pytest.approx(s.gpu_power_w)


class TestSyntheticErrors:
    def test_half_normal_sigma(self):
        assert half_normal_sigma(0.0) == 0.0
        assert half_normal_sigma(0.1) == pytest.approx(0.1 * np.sqrt(np.pi / 2))
        with pytest.raises(ValueError):
            half_normal_sigma(-0.1)

    def test_zero_error_is_transparent(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        wrapped = SyntheticErrorPredictor(oracle, 0.0, 0.0)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        assert wrapped.estimate(counters, config) == oracle.estimate(counters, config)

    def test_errors_deterministic_per_query(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        wrapped = SyntheticErrorPredictor(oracle, 0.15, 0.10, seed=7)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        config = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        assert wrapped.estimate(counters, config) == wrapped.estimate(counters, config)

    def test_mean_error_near_requested(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        wrapped = SyntheticErrorPredictor(oracle, 0.15, 0.10, seed=3)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        errors = []
        for config in ConfigSpace().all_configs():
            true = oracle.estimate(counters, config).time_s
            noisy = wrapped.estimate(counters, config).time_s
            errors.append(abs(noisy - true) / true)
        assert 0.10 < float(np.mean(errors)) < 0.20

    def test_different_configs_different_errors(self, apu):
        oracle = OraclePredictor(apu, KERNELS)
        wrapped = SyntheticErrorPredictor(oracle, 0.15, 0.10, seed=7)
        counters = CounterSynthesizer(noise=0.0).nominal(KERNELS[0])
        c1 = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        c2 = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=6)
        f1 = wrapped._factors(counters, c1)
        f2 = wrapped._factors(counters, c2)
        assert f1 != f2
