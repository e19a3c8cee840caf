"""CLI surface: --trace-out/--metrics-out, repro obs, logging setup."""

import logging

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.obs


class TestParser:
    def test_run_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["run", "kmeans", "--trace-out", "t.jsonl",
             "--metrics-out", "m.prom"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out == "m.prom"

    def test_experiments_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["experiments", "fig14", "--trace-out", "t.jsonl"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out is None

    def test_obs_subcommands(self):
        args = build_parser().parse_args(["obs", "summarize", "t.jsonl"])
        assert (args.obs_command, args.trace) == ("summarize", "t.jsonl")
        args = build_parser().parse_args(["obs", "validate", "t.jsonl"])
        assert args.schema == "docs/trace.schema.json"

    def test_global_log_level(self):
        args = build_parser().parse_args(["--log-level", "debug", "list"])
        assert args.log_level == "debug"


class TestObsCommands:
    def _trace(self, tmp_path, spans):
        from repro.obs.exporters import write_jsonl

        path = str(tmp_path / "trace.jsonl")
        write_jsonl(spans, path)
        return path

    def _span(self, **attrs):
        attributes = {
            "session": "", "app": "a", "policy": "MPC", "index": 0,
            "kernel": "k", "config": "c", "fail_safe": False,
            "fallback": False, "time_s": 1.0, "energy_j": 1.0,
            "overhead_time_s": 0.0, "overhead_energy_j": 0.0,
            "observed_ips": 1.0, "observed_power_w": 1.0,
        }
        attributes.update(attrs)
        return {"schema": 1, "name": "launch", "start_s": 0.0,
                "end_s": 1.0, "attributes": attributes}

    def test_summarize(self, tmp_path, capsys):
        path = self._trace(tmp_path, [self._span()])
        assert main(["obs", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "trace summary: 1 launch span(s)" in out
        assert "MPC" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = self._trace(tmp_path, [self._span()])
        assert main(["obs", "validate", path]) == 0
        assert "all spans valid" in capsys.readouterr().out

    def test_validate_failure_exits_nonzero(self, tmp_path, capsys):
        bad = self._span()
        del bad["attributes"]["config"]
        path = self._trace(tmp_path, [bad])
        assert main(["obs", "validate", path]) == 1
        out = capsys.readouterr().out
        assert "missing required key 'config'" in out
        assert "1 invalid spans" in out

    def _skip_span(self, index):
        return self._span(
            session="s", index=index, mode="skip", fail_safe=True,
            budget_exhausted=True,
        )

    def test_health_report_and_drift_gates(self, tmp_path, capsys):
        # Three consecutive exhausted-budget fail-safe skips are one
        # budget-collapse drift event (skip_cascade default).
        path = self._trace(
            tmp_path, [self._skip_span(i) for i in (1, 2, 3)]
        )
        assert main(["obs", "health", path]) == 0
        out = capsys.readouterr().out
        assert "model health: 1 session(s)" in out
        assert "DEGRADED" in out and "budget-collapse" in out
        assert main(["obs", "health", path, "--min-drift", "1"]) == 0
        capsys.readouterr()
        assert main(["obs", "health", path, "--max-drift", "0"]) == 1
        assert "> allowed 0" in capsys.readouterr().err

    def test_health_min_drift_failure_exits_nonzero(self, tmp_path, capsys):
        path = self._trace(tmp_path, [self._span(session="s", mode="mpc")])
        assert main(["obs", "health", path, "--min-drift", "1"]) == 1
        captured = capsys.readouterr()
        assert "0 drift event(s) < required 1" in captured.err
        assert "HEALTHY" in captured.out

    def test_health_json_report(self, tmp_path, capsys):
        import json

        path = self._trace(tmp_path, [self._skip_span(i) for i in (1, 2, 3)])
        assert main(["obs", "health", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        session = report["sessions"]["s"]
        assert session["state"] == "DEGRADED"
        assert session["drift_events"] == 1
        assert session["first_drift_decision"] == 3
        # The thresholds docs/OBSERVABILITY.md documents.
        assert report["config"] == {
            "window": 32,
            "ewma_alpha": 0.25,
            "degraded_error": 0.5,
            "untrusted_error": 1.5,
            "recovery_samples": 8,
            "warmup_samples": 16,
            "ph_delta": 0.05,
            "ph_threshold": 2.0,
            "shift_window": 8,
            "shift_threshold": 0.35,
            "skip_cascade": 3,
        }

    def test_offline_health_matches_live_monitor(self, tmp_path, capsys):
        # `repro run --health --trace-out` then `repro obs health` on
        # the written trace: identical deterministic computation.
        import json

        trace = str(tmp_path / "t.jsonl")
        assert main(["run", "kmeans", "--policy", "turbo", "--health",
                     "--trace-out", trace]) == 0
        live = capsys.readouterr().out
        assert "model health" in live
        assert main(["obs", "health", trace, "--json"]) == 0
        offline = json.loads(capsys.readouterr().out)
        (session,) = offline["sessions"].values()
        assert session["state"] == "HEALTHY"
        assert session["drift_events"] == 0


class TestRunWithTracing:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs.exporters import read_jsonl

        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.prom")
        code = main(
            ["run", "kmeans", "--policy", "turbo",
             "--trace-out", trace, "--metrics-out", metrics]
        )
        assert code == 0
        spans = read_jsonl(trace)
        assert spans and all(s["name"] == "launch" for s in spans)
        text = open(metrics, encoding="utf-8").read()
        assert "repro_runtime_launches_total" in text
        out = capsys.readouterr().out
        assert f"wrote {len(spans)} spans to {trace}" in out

    def test_run_then_summarize_round_trip(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["run", "kmeans", "--policy", "turbo",
                     "--trace-out", trace]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", trace]) == 0
        assert "TurboCore" in capsys.readouterr().out


class TestLogging:
    def test_library_installs_null_handler(self):
        import repro  # noqa: F401

        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_runner_has_library_logger(self):
        from repro.experiments.runner import logger

        assert logger.name == "repro.experiments.runner"
