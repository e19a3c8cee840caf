"""Fast structural checks of every figure module on a reduced context.

Runs each experiment over two benchmarks with an oracle predictor
(no forest training), verifying table structure and basic sanity.  The
full-suite shape checks live in ``benchmarks/``.
"""

import pytest

from repro.engine import ExperimentEngine
from repro.experiments.matrix import requests_for
from repro.experiments import fig4_limit_study, fig8_mpc_vs_turbo
from repro.experiments import fig9_mpc_vs_ppk, fig10_gpu_energy
from repro.experiments import fig11_amortization, fig12_theoretical_limit
from repro.experiments import fig13_prediction_error, fig14_overheads
from repro.experiments import fig15_horizon, fig2_scaling, fig3_throughput
from repro.experiments.common import ExperimentContext
from repro.ml.predictors import OraclePredictor
from repro.workloads.suites import benchmark

NAMES = ["NBody", "kmeans"]

#: Experiment keys this module exercises on the shared context; their
#: policy runs are prefetched in one engine pass and replayed from the
#: on-disk cache on warm reruns of the suite.
KEYS = ["fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15"]


@pytest.fixture(scope="module")
def ctx():
    kernels = []
    for name in NAMES + ["Spmv", "hybridsort"]:
        kernels.extend(benchmark(name).unique_kernels)
    engine = ExperimentEngine(jobs=1, cache_dir=".cache")
    context = ExperimentContext(benchmark_names=NAMES,
                                cache_dir=".cache", engine=engine)
    # Inject a training-free predictor covering the context's kernels.
    context.predictor = OraclePredictor(context.apu, kernels)
    engine.prefetch(context, requests_for(KEYS, context))
    return context


class TestFigureStructure:
    def test_fig2(self, ctx):
        table = fig2_scaling.fig2(ctx)
        assert len(table.rows) == 4 * 4  # 4 classes x 4 NB states

    def test_fig3_uses_its_own_benchmarks(self):
        sub = ExperimentContext(benchmark_names=list(fig3_throughput.FIG3_BENCHMARKS))
        series = fig3_throughput.throughput_series(sub, "kmeans")
        assert len(series) == 21

    def test_fig4(self, ctx):
        table = fig4_limit_study.fig4(ctx)
        assert table.column("Benchmark") == NAMES
        assert all(s > 0.9 for s in table.column("TO speedup"))

    def test_fig8_and_summary(self, ctx):
        table = fig8_mpc_vs_turbo.fig8(ctx)
        assert len(table.rows) == len(NAMES)
        summary = fig8_mpc_vs_turbo.fig8_summary(ctx)
        assert 0 < summary["mpc_energy_savings_pct"] < 100

    def test_fig9_summary_keys(self, ctx):
        summary = fig9_mpc_vs_ppk.fig9_summary(ctx)
        assert set(summary) == {
            "energy_savings_pct", "speedup",
            "irregular_energy_savings_pct", "irregular_speedup",
        }

    def test_fig10_split_sums_to_100(self, ctx):
        summary = fig10_gpu_energy.fig10_summary(ctx)
        total = (summary["cpu_share_of_savings_pct"]
                 + summary["gpu_share_of_savings_pct"])
        assert total == pytest.approx(100.0)

    def test_fig11_matches_manual_accounting(self, ctx):
        deltas = fig11_amortization.amortized_deltas(ctx, "kmeans", 1)
        first = ctx.mpc_first("kmeans")
        steady = ctx.mpc("kmeans")
        ppk = ctx.ppk("kmeans")
        expected = (2 * ppk.total_time_s) / (first.total_time_s + steady.total_time_s)
        assert deltas["speedup"] == pytest.approx(expected)

    def test_fig11_converges_to_steady_state(self, ctx):
        big = fig11_amortization.amortized_deltas(ctx, "kmeans", 10_000)
        steady = fig11_amortization.steady_state_deltas(ctx, "kmeans")
        assert big["speedup"] == pytest.approx(steady["speedup"], rel=1e-3)

    def test_fig11_rejects_negative(self, ctx):
        with pytest.raises(ValueError):
            fig11_amortization.amortized_deltas(ctx, "kmeans", -1)

    def test_fig12_capture_ratio(self, ctx):
        summary = fig12_theoretical_limit.fig12_summary(ctx)
        assert 0.5 < summary["energy_capture_ratio"] <= 1.05

    def test_fig13_labels(self, ctx):
        summary = fig13_prediction_error.fig13_summary(ctx)
        assert set(summary) == {"RF", "Err_15%_10%", "Err_5%", "Err_0%"}

    def test_fig13_rejects_unknown_variant(self, ctx):
        with pytest.raises(KeyError):
            fig13_prediction_error._variant_run(ctx, "kmeans", "Err_99%")

    def test_fig14_overheads_nonnegative(self, ctx):
        summary = fig14_overheads.fig14_summary(ctx)
        assert summary["max_perf_overhead_pct"] >= summary["mean_perf_overhead_pct"] >= 0

    def test_fig15_bounds(self, ctx):
        summary = fig15_horizon.fig15_summary(ctx)
        for value in summary.values():
            assert 0.0 <= value <= 100.0
