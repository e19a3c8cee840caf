"""Tests for the ``repro fleet`` and ``repro bench fleet`` CLI surface."""

import json

import pytest

import repro.experiments.bench_fleet as bench_fleet
from repro.cli import main

from tests.fleet.conftest import build_schedule_trace

pytestmark = pytest.mark.fleet


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet-cli") / "mini.jsonl"
    build_schedule_trace(["a", "b"] * 4, name="fleet-cli").dump(str(path))
    return str(path)


def test_fleet_run_reports_placement_and_budgets(trace_file, capsys):
    code = main(
        ["fleet", "run", trace_file, "--nodes", "2", "--cap-w", "100",
         "--epoch-launches", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 node(s) (inline), 100 W cap" in out
    assert "node-0: 1 session(s)" in out
    assert "node-1: 1 session(s)" in out
    assert "last epoch budgets" in out
    assert "aggregate:" in out


def test_fleet_run_writes_obs_artifacts(trace_file, tmp_path, capsys):
    spans = str(tmp_path / "spans.jsonl")
    metrics = str(tmp_path / "metrics.prom")
    code = main(
        ["fleet", "run", trace_file, "--nodes", "2", "--cap-w", "100",
         "--trace-out", spans, "--metrics-out", metrics]
    )
    assert code == 0
    lines = [json.loads(l) for l in open(spans, encoding="utf-8")]
    assert any(span["name"] == "epoch" for span in lines)
    prom = open(metrics, encoding="utf-8").read()
    assert "repro_fleet_epochs_total" in prom
    assert "repro_fleet_node_budget_watts" in prom


def test_fleet_run_missing_trace_exits_two(capsys):
    assert main(["fleet", "run", "no-such-trace.jsonl"]) == 2
    assert "no-such-trace.jsonl" in capsys.readouterr().err


def test_fleet_run_rejects_invalid_config(trace_file, capsys):
    for bad in (
        ["--nodes", "0"],
        ["--max-sessions-per-node", "1", "--max-queued", "-1"],
    ):
        code = main(["fleet", "run", trace_file, *bad])
        assert code == 2
        assert "repro fleet run:" in capsys.readouterr().err


def test_bench_fleet_quick_appends_trajectory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        bench_fleet, "bench_trace",
        lambda seed=0, quick=False: build_schedule_trace(
            ["a", "b"] * 4, name="bench-mini"
        ),
    )
    monkeypatch.setattr(bench_fleet, "_QUICK_NODES", (1,))
    out = str(tmp_path / "BENCH_fleet.json")
    assert main(["bench", "fleet", "--quick", "-o", out]) == 0
    stdout = capsys.readouterr().out
    assert "== bench fleet (quick)" in stdout
    assert f"appended to {out}" in stdout
    payload = json.load(open(out, encoding="utf-8"))
    assert payload["schema"] == bench_fleet.SCHEMA
    (entry,) = payload["trajectory"]
    assert entry["cpu_count"] >= 1
    assert {p["cap"] for p in entry["grid"]} == {"tight", "loose"}
    assert all(p["budget_conserved"] for p in entry["grid"])
    # A second run appends rather than overwrites.
    assert main(["bench", "fleet", "--quick", "-o", out, "-l", "again"]) == 0
    trajectory = json.load(open(out, encoding="utf-8"))["trajectory"]
    assert [e["label"] for e in trajectory] == ["quick", "again"]


def test_bench_fleet_enforces_min_speedup(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        bench_fleet, "bench_trace",
        lambda seed=0, quick=False: build_schedule_trace(
            ["a", "b"] * 4, name="bench-mini"
        ),
    )
    monkeypatch.setattr(bench_fleet, "_QUICK_NODES", (1,))
    out = str(tmp_path / "BENCH_fleet.json")
    # With no 4-node grid point the speedup is unmeasured, which must
    # fail the bound rather than silently pass.
    code = main(
        ["bench", "fleet", "--quick", "-o", out, "--min-speedup", "2.0"]
    )
    assert code == 1
    assert "below the required 2.0x" in capsys.readouterr().err
