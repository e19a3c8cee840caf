"""Unit tests for corpus statistics and TDP enforcement."""

import pytest

from repro.core.policies import FixedConfigPolicy
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace
from repro.hardware.power import PowerModel, PowerModelParams
from repro.sim.simulator import Simulator
from repro.workloads.app import Application, Category
from repro.workloads.extended import extended_benchmarks
from repro.workloads.kernel import KernelSpec, ScalingClass
from repro.workloads.stats import corpus_stats
from repro.workloads.suites import all_benchmarks

KERNEL = KernelSpec("k", ScalingClass.COMPUTE, 4.0, 0.1, parallel_fraction=0.99)
APP = Application("t", "unit", Category.REGULAR, kernels=(KERNEL,) * 3, pattern="A3")


class TestCorpusStats:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])

    def test_paper_evaluation_set_distribution(self):
        stats = corpus_stats(all_benchmarks())
        assert stats.num_benchmarks == 15
        # Paper: 12 of the 15 evaluated benchmarks are irregular (80%).
        assert stats.irregular_fraction == pytest.approx(12 / 15)
        assert stats.input_varying_fraction == pytest.approx(8 / 15)

    def test_combined_corpus_matches_paper_shape(self):
        # Paper (73-app corpus): ~75% irregular, ~44% input-varying.
        stats = corpus_stats(all_benchmarks() + extended_benchmarks())
        assert 0.55 < stats.irregular_fraction < 0.9
        assert 0.3 < stats.input_varying_fraction < 0.6

    def test_scaling_classes_all_present(self):
        stats = corpus_stats(all_benchmarks())
        assert set(stats.scaling_class_counts) == {
            c.value for c in ScalingClass
        }

    def test_means(self):
        stats = corpus_stats([APP])
        assert stats.mean_launches == 3.0
        assert stats.mean_unique_kernels == 1.0


class TestTdpEnforcement:
    def _low_tdp_sim(self, tdp_w: float, enforce: bool) -> Simulator:
        apu = APUModel(power=PowerModel(PowerModelParams(tdp_w=tdp_w)))
        return Simulator(apu=apu, enforce_tdp=enforce)

    def test_within_tdp_config_untouched(self):
        sim = self._low_tdp_sim(95.0, enforce=True)
        fast = ConfigSpace().fastest()
        run = sim.run(APP, FixedConfigPolicy(fast))
        assert all(r.config == fast for r in run.launches)

    def test_over_tdp_config_throttled(self):
        sim = self._low_tdp_sim(40.0, enforce=True)
        fast = ConfigSpace().fastest()
        run = sim.run(APP, FixedConfigPolicy(fast))
        for record in run.launches:
            assert record.config != fast
            assert (
                sim.apu.kernel_power(KERNEL, record.config).total_w
                <= sim.apu.tdp_w
            )

    def test_cpu_shed_before_gpu(self):
        sim = self._low_tdp_sim(55.0, enforce=True)
        fast = ConfigSpace().fastest()
        run = sim.run(APP, FixedConfigPolicy(fast))
        config = run.launches[0].config
        assert config.cpu != "P1"
        assert config.gpu == "DPM4"  # the CPU shed sufficed

    def test_enforcement_off_by_default(self):
        sim = self._low_tdp_sim(40.0, enforce=False)
        fast = ConfigSpace().fastest()
        run = sim.run(APP, FixedConfigPolicy(fast))
        assert all(r.config == fast for r in run.launches)

    def test_unreachable_tdp_clamps_to_floor(self):
        sim = self._low_tdp_sim(5.0, enforce=True)
        fast = ConfigSpace().fastest()
        run = sim.run(APP, FixedConfigPolicy(fast))
        config = run.launches[0].config
        assert config.cpu == "P7"
        assert config.gpu == "DPM0"
