"""Unit tests for the experiments infrastructure (tables, runner, report)."""

import pytest

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.experiments.report import PAPER_NOTES
from repro.experiments.runner import ALL_EXPERIMENTS, run_all
from repro.experiments.tables import table1, table2, table3, table4


class TestExperimentTable:
    def _table(self):
        return ExperimentTable("Fig X", "demo", headers=["a", "b"])

    def test_add_row_checks_width(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column(self):
        table = self._table()
        table.add_row("x", 1)
        table.add_row("y", 2)
        assert table.column("b") == [1, 2]

    def test_column_unknown(self):
        with pytest.raises(ValueError):
            self._table().column("zz")

    def test_row_for(self):
        table = self._table()
        table.add_row("x", 1)
        assert table.row_for("x") == ["x", 1]
        with pytest.raises(KeyError):
            table.row_for("nope")

    def test_format_contains_everything(self):
        table = self._table()
        table.add_row("hello", 3.14159)
        rendered = table.format()
        assert "Fig X" in rendered
        assert "hello" in rendered
        assert "3.142" in rendered  # floats at 3 decimals


class TestStaticTables:
    def test_table1_counts(self):
        assert len(table1().rows) == 16

    def test_table2_matches(self):
        assert all(table2().column("Match"))

    def test_table3_has_eight_counters(self):
        assert len(table3().rows) == 8

    def test_table4_lists_fifteen(self):
        assert len(table4().rows) == 15


class TestRunner:
    def test_every_experiment_registered(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15",
            "headline", "ablation",
            "ablation_search_order", "ablation_window_reserve",
            "ablation_overhead_hiding",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_every_experiment_has_a_paper_note(self):
        for key in ALL_EXPERIMENTS:
            assert key in PAPER_NOTES, f"missing paper note for {key}"

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            run_all(only=["figZZ"], echo=False)

    def test_static_subset_runs(self, capsys):
        tables = run_all(only=["table1", "fig7"], echo=True)
        assert [t.experiment_id for t in tables] == ["Table I", "Figure 7"]
        out = capsys.readouterr().out
        assert "Table I" in out


class TestContext:
    def test_restricted_benchmark_set(self):
        ctx = ExperimentContext(benchmark_names=["NBody"])
        assert ctx.benchmark_names == ["NBody"]
        run = ctx.turbo("NBody")
        assert run.app_name == "NBody"
        # Cached: the same object comes back.
        assert ctx.turbo("NBody") is run

    def test_target_matches_turbo_run(self):
        ctx = ExperimentContext(benchmark_names=["NBody"])
        turbo = ctx.turbo("NBody")
        assert ctx.target_throughput("NBody") == pytest.approx(
            turbo.instructions / turbo.kernel_time_s
        )


class TestBenchDecide:
    def test_trajectory_appends_and_survives_schema_mismatch(self, tmp_path):
        from repro.experiments.bench_decide import SCHEMA, _load_trajectory

        path = tmp_path / "bench.json"
        assert _load_trajectory(str(path)) == []
        path.write_text('{"schema": "other/v0", "trajectory": [1]}')
        assert _load_trajectory(str(path)) == []
        path.write_text(
            '{"schema": "%s", "trajectory": [{"label": "seed"}]}' % SCHEMA
        )
        assert _load_trajectory(str(path)) == [{"label": "seed"}]

    def test_entry_records_cpu_count_under_schema_v1(self, tmp_path, monkeypatch):
        import json
        import os

        from repro.experiments import bench_decide

        # Stub the timed parts: only the entry's shape is under test.
        monkeypatch.setattr(bench_decide, "train_predictor", lambda **_: None)
        monkeypatch.setattr(
            bench_decide, "_bench_backend", lambda name, *_: {"backend": name}
        )
        monkeypatch.setattr(bench_decide, "_bench_health_overhead", lambda *_: {})
        path = tmp_path / "bench.json"
        entry = bench_decide.run_bench_decide(quick=True, output=str(path))
        assert entry["cpu_count"] == os.cpu_count()
        saved = json.loads(path.read_text())
        assert saved["schema"] == "repro/bench_decide/v1"
        assert saved["trajectory"] == [entry]

    def test_format_entry_lists_every_backend(self):
        from repro.experiments.bench_decide import format_entry

        entry = {
            "label": "seed", "benchmark": "kmeans", "cases": 2,
            "backends": {
                "rf": {
                    "matrix_decisions_per_s": 40.0,
                    "batched": {
                        "64": {"decisions_per_s": 160.0, "speedup_vs_matrix": 4.0},
                    },
                },
            },
        }
        text = format_entry(entry)
        assert "rf" in text and "4.00x vs matrix" in text

    def test_backend_entry_times_matrix_and_batched_paths_only(self):
        from repro.experiments import bench_decide
        from repro.hardware.apu import APUModel
        from repro.hardware.config import ConfigSpace
        from repro.ml.predictors import OraclePredictor

        apu, space = APUModel(), ConfigSpace()
        cases, kernels = bench_decide._decision_cases(apu, space, "kmeans")
        entry = bench_decide._bench_backend(
            "oracle", OraclePredictor(apu, kernels), space, cases, 1
        )
        assert set(entry) == {
            "backend", "matrix_decisions_per_s", "decisions_timed", "batched",
        }
        assert set(entry["batched"]) == {str(n) for n in bench_decide.BATCH_SESSIONS}
        for batch in entry["batched"].values():
            assert set(batch) == {"decisions_per_s", "speedup_vs_matrix"}

    def test_every_timed_decision_pays_for_its_own_sweep(self):
        # The optimizer caches a sweep per counter vector object, so the
        # bench must observe fresh counters per decision or it would
        # time cache lookups after the warm round.
        from repro.core.optimizer import GreedyHillClimbOptimizer
        from repro.experiments import bench_decide
        from repro.hardware.apu import APUModel
        from repro.hardware.config import ConfigSpace
        from repro.ml.predictors import OraclePredictor, PerfPowerPredictor

        apu, space = APUModel(), ConfigSpace()
        cases, kernels = bench_decide._decision_cases(apu, space, "kmeans")
        oracle = OraclePredictor(apu, kernels)
        calls = []

        class Counting(PerfPowerPredictor):
            def estimate_matrix_many(self, counters_list, table, indices=None):
                calls.append(
                    (len(counters_list), None if indices is None else len(indices))
                )
                return oracle.estimate_matrix_many(counters_list, table, indices)

        optimizer = GreedyHillClimbOptimizer(space, Counting())
        _, timed = bench_decide._time_path(optimizer, cases, 6)
        # Every kmeans climb computes the same crosses: its sweep's
        # 15-row fail-safe cross, then the unknown rest of three more.
        climb = [(1, 13), (1, 12), (1, 11)]
        # One sweep started per decision, the untimed warm round
        # included.
        assert calls == ([(1, 15)] + climb) * (timed + len(cases))
        calls.clear()
        bench_decide._time_batched(optimizer, cases, 8, 16)
        # One stacked start of the distinct kernels per step, warm-up
        # step included; each kernel's sessions share its sweep, so
        # only the first to climb computes the crosses.
        step = [(len(cases), 15)] + climb * len(cases)
        assert calls == step * (16 // 8 + 1)

    def test_format_entry_renders_health_overhead_budget(self):
        from repro.experiments.bench_decide import format_entry

        entry = {
            "label": "full", "benchmark": "kmeans", "cases": 2,
            "backends": {
                "rf": {
                    "matrix_decisions_per_s": 40.0,
                    "batched": {
                        "64": {"decisions_per_s": 160.0, "speedup_vs_matrix": 4.0},
                    },
                },
            },
            "health_overhead": {
                "sessions": 64,
                "noop_decisions_per_s": 400.0,
                "health_decisions_per_s": 390.0,
                "overhead_pct": 2.5,
                "budget_pct": 5.0,
            },
        }
        text = format_entry(entry)
        assert "health" in text
        assert "+2.50% overhead" in text
        assert "budget 5%" in text
