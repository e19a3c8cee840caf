"""Unit tests for the ground-truth timing model (Figure 2 behaviours)."""

import pytest

from repro.hardware.config import HardwareConfig
from repro.hardware.perf import TimingModel
from repro.hardware.table import ConfigTable
from repro.workloads.kernel import KernelSpec, ScalingClass


@pytest.fixture
def model():
    return TimingModel()


def _config(nb="NB0", gpu="DPM4", cu=8, cpu="P1"):
    return HardwareConfig(cpu=cpu, nb=nb, gpu=gpu, cu=cu)


def _timing(model, spec, config):
    """The model's timing breakdown at one configuration, as plain floats."""
    matrix = model.kernel_timing_matrix(spec, ConfigTable.from_configs([config]))
    return {
        "compute": float(matrix.compute_time_s[0]),
        "memory": float(matrix.memory_time_s[0]),
        "serial": matrix.serial_time_s,
        "total": float(matrix.total_time_s[0]),
        "bandwidth": float(matrix.achieved_bandwidth_gbps[0]),
        "traffic": float(matrix.effective_memory_traffic_gb[0]),
        "compute_util": float(matrix.compute_utilization[0]),
    }


def _time(model, spec, config):
    return _timing(model, spec, config)["total"]


COMPUTE = KernelSpec("c", ScalingClass.COMPUTE, 10.0, 0.02,
                     parallel_fraction=0.995, compute_efficiency=0.9)
MEMORY = KernelSpec("m", ScalingClass.MEMORY, 0.8, 1.5,
                    parallel_fraction=0.9, compute_efficiency=0.7)
PEAK = KernelSpec("p", ScalingClass.PEAK, 4.0, 0.5, cache_interference=0.5,
                  cache_sweet_spot_cu=4, parallel_fraction=0.95)
UNSCALABLE = KernelSpec("u", ScalingClass.UNSCALABLE, 0.3, 0.08,
                        serial_time_s=0.03, parallel_fraction=0.7)


class TestConstruction:
    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            TimingModel(lanes_per_cu=0)

    def test_invalid_bw_demand(self):
        with pytest.raises(ValueError):
            TimingModel(bw_demand_per_cu_ghz=-1.0)


class TestComputeKernels:
    def test_scales_with_cu(self, model):
        t2 = _time(model, COMPUTE, _config(cu=2))
        t8 = _time(model, COMPUTE, _config(cu=8))
        assert 3.0 < t2 / t8 < 4.5  # near-linear CU scaling

    def test_scales_with_gpu_frequency(self, model):
        slow = _time(model, COMPUTE, _config(gpu="DPM0"))
        fast = _time(model, COMPUTE, _config(gpu="DPM4"))
        assert slow / fast == pytest.approx(0.720 / 0.351, rel=0.01)

    def test_nb_state_irrelevant(self, model):
        t_nb0 = _time(model, COMPUTE, _config(nb="NB0"))
        t_nb3 = _time(model, COMPUTE, _config(nb="NB3"))
        assert t_nb0 == pytest.approx(t_nb3, rel=1e-9)


class TestMemoryKernels:
    def test_nb3_hurts(self, model):
        t_nb2 = _time(model, MEMORY, _config(nb="NB2"))
        t_nb3 = _time(model, MEMORY, _config(nb="NB3"))
        assert t_nb3 > 1.5 * t_nb2

    def test_saturates_from_nb2(self, model):
        times = [_time(model, MEMORY, _config(nb=nb)) for nb in ("NB2", "NB1", "NB0")]
        assert max(times) == pytest.approx(min(times), rel=1e-9)

    def test_small_gpu_cannot_saturate_bus(self, model):
        t2 = _time(model, MEMORY, _config(cu=2))
        t8 = _time(model, MEMORY, _config(cu=8))
        assert t2 / t8 > 2.0  # Fig 2(b): ~2.4x from 2 to 8 CUs

    def test_achieved_bandwidth_capped_by_bus(self, model):
        timing = _timing(model, MEMORY, _config())
        assert timing["bandwidth"] <= _config().memory_bandwidth_gbps + 1e-9


class TestPeakKernels:
    def test_fastest_below_max_cu(self, model):
        times = {cu: _time(model, PEAK, _config(cu=cu)) for cu in (2, 4, 6, 8)}
        best_cu = min(times, key=times.get)
        assert best_cu < 8

    def test_interference_inflates_traffic(self, model):
        t4 = _timing(model, PEAK, _config(cu=4))["traffic"]
        t8 = _timing(model, PEAK, _config(cu=8))["traffic"]
        assert t8 == pytest.approx(t4 * (1 + 0.5 * 4))

    def test_no_interference_below_sweet_spot(self, model):
        assert _timing(model, PEAK, _config(cu=2))["traffic"] == PEAK.memory_traffic


class TestUnscalableKernels:
    def test_insensitive_to_configuration(self, model):
        # Figure 2(d): the unscalable kernel gains well under 1.5x over
        # the whole configuration sweep (vs ~4x for compute kernels).
        t_small = _time(model, UNSCALABLE, _config(nb="NB2", gpu="DPM0", cu=2))
        t_big = _time(model, UNSCALABLE, _config(nb="NB0", gpu="DPM4", cu=8))
        assert t_big <= t_small <= 1.5 * t_big

    def test_serial_floor(self, model):
        assert _time(model, UNSCALABLE, _config()) >= UNSCALABLE.serial_time_s


class TestTimingBreakdown:
    def test_total_is_serial_plus_overlap(self, model):
        timing = _timing(model, MEMORY, _config())
        assert timing["total"] == pytest.approx(
            timing["serial"] + max(timing["compute"], timing["memory"])
        )

    def test_utilizations_bounded(self, model):
        for spec in (COMPUTE, MEMORY, PEAK, UNSCALABLE):
            timing = _timing(model, spec, _config())
            window = timing["total"] - timing["serial"]
            assert 0.0 <= timing["compute_util"] <= 1.0
            # Memory is busy for at most the whole overlapped window.
            assert 0.0 <= timing["memory"] <= window

    def test_compute_bound_has_full_compute_utilization(self, model):
        timing = _timing(model, COMPUTE, _config())
        assert timing["compute_util"] == pytest.approx(1.0)

    def test_amdahl_speedup_monotone(self, model):
        # Speedup over a single CU, whose lane rate has no Amdahl term.
        one_cu = COMPUTE.compute_work / (
            model.lanes_per_cu * _config().gpu_state.freq_ghz * COMPUTE.compute_efficiency
        )
        speedups = [
            one_cu / _timing(model, COMPUTE, _config(cu=cu))["compute"]
            for cu in (2, 4, 6, 8)
        ]
        assert speedups == sorted(speedups)
        assert speedups[0] > 1.0
