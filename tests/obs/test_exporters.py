"""Exporter round-trips: JSONL, Prometheus text, summary, validation."""

import json

import pytest

from repro.obs.exporters import (
    format_summary,
    prometheus_text,
    read_jsonl,
    summarize_spans,
    validate_span,
    validate_trace_file,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

pytestmark = pytest.mark.obs


def launch(app, policy, *, session="", time_s=1.0, overhead_s=0.0, **attrs):
    """A minimal launch-span dict in the exported shape."""
    attributes = {
        "session": session, "app": app, "policy": policy, "index": 0,
        "kernel": "k", "config": "[P5, NB0, DPM0, 2 CUs]",
        "fail_safe": False, "fallback": False,
        "time_s": time_s, "energy_j": 1.0,
        "overhead_time_s": overhead_s, "overhead_energy_j": 0.0,
        "observed_ips": 1e9, "observed_power_w": 40.0,
    }
    attributes.update(attrs)
    return {
        "schema": 1, "name": "launch", "start_s": 0.0,
        "end_s": time_s + overhead_s, "attributes": attributes,
    }


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        spans = [launch("a", "MPC"), launch("a", "TurboCore")]
        assert write_jsonl(spans, path) == 2
        assert read_jsonl(path) == spans

    def test_write_accepts_span_objects(self, tmp_path):
        tracer = Tracer()
        tracer.end_span(tracer.start_span("launch", at=0.0), at=1.0)
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(tracer.spans, path)
        assert read_jsonl(path)[0]["name"] == "launch"

    def test_lines_have_sorted_keys(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl([launch("a", "MPC")], path)
        line = open(path, encoding="utf-8").readline()
        parsed = json.loads(line)
        assert line == json.dumps(parsed, sort_keys=True) + "\n"

    def test_read_skips_blank_lines_and_raises_on_garbage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "launch"}\n\n', encoding="utf-8")
        assert len(read_jsonl(str(path))) == 1
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid trace line"):
            read_jsonl(str(path))


class TestPrometheusText:
    def test_counter_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help text").inc(2, mode="x")
        registry.gauge("g").set(1.5)
        text = prometheus_text(registry)
        assert "# HELP c_total help text" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{mode="x"} 2' in text
        assert "# TYPE g gauge" in text
        assert "g 1.5" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 0.7, 1.5, 99.0):
            hist.observe(value)
        text = prometheus_text(registry)
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="2"} 3' in text
        assert 'h_seconds_bucket{le="+Inf"} 4' in text
        assert "h_seconds_count 4" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(app='we"ird\\x')
        text = prometheus_text(registry)
        assert 'app="we\\"ird\\\\x"' in text

    def test_write_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        path = str(tmp_path / "metrics.prom")
        assert write_prometheus(registry, path) == path
        assert "c_total 1" in open(path, encoding="utf-8").read()


class TestPrometheusFormatLock:
    """The ``promtool check metrics`` exposition contract, pinned.

    Every family gets exactly one ``# HELP``/``# TYPE`` pair with HELP
    first, histograms always close with a cumulative ``+Inf`` bucket
    equal to ``_count``, and help text is escaped — so the output can
    be scraped verbatim.
    """

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "counter help").inc(mode="a")
        registry.counter("c_total", "counter help").inc(mode="b")
        registry.gauge("g")  # no help: HELP must fall back to the name
        hist = registry.histogram("h_seconds", "hist help", buckets=(1.0,))
        hist.observe(0.5, op="x")
        hist.observe(9.0, op="x")
        return registry

    def test_one_help_and_type_per_family_help_first(self):
        lines = prometheus_text(self._registry()).splitlines()
        for family in ("c_total", "g", "h_seconds"):
            help_lines = [i for i, l in enumerate(lines)
                          if l.startswith(f"# HELP {family} ")]
            type_lines = [i for i, l in enumerate(lines)
                          if l.startswith(f"# TYPE {family} ")]
            assert len(help_lines) == len(type_lines) == 1
            assert help_lines[0] + 1 == type_lines[0]

    def test_help_falls_back_to_metric_name(self):
        assert "# HELP g g" in prometheus_text(self._registry())

    def test_inf_bucket_equals_count(self):
        text = prometheus_text(self._registry())
        assert 'h_seconds_bucket{op="x",le="+Inf"} 2' in text
        assert 'h_seconds_count{op="x"} 2' in text

    def test_help_newlines_and_backslashes_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "line one\nline \\two").inc()
        text = prometheus_text(registry)
        assert "# HELP c_total line one\\nline \\\\two" in text

    def test_duplicate_family_in_snapshot_rejected(self):
        snapshot = MetricsRegistry().snapshot()
        entry = {"name": "dup_total", "kind": "counter",
                 "help": "", "series": []}
        snapshot["metrics"] = [entry, dict(entry)]
        with pytest.raises(ValueError, match="duplicate metric family"):
            prometheus_text(snapshot)

    def test_health_families_export_cleanly(self):
        from repro.obs.health import HealthMonitor

        registry = MetricsRegistry()
        monitor = HealthMonitor(registry)
        monitor.observe_launch({
            "session": "s", "index": 0, "kernel": "k", "mode": "mpc",
            "fail_safe": False, "fallback": False,
            "predicted_ips": 110.0, "observed_ips": 100.0,
            "predicted_power_w": 50.0, "observed_power_w": 50.0,
        })
        text = prometheus_text(registry)
        assert "# TYPE repro_health_rel_error histogram" in text
        assert ('repro_health_rel_error_bucket{kernel="k",quantity="ips",'
                'session="s",le="+Inf"} 1') in text
        assert "# HELP repro_health_state " in text


class TestSummarize:
    def test_overhead_fraction_and_vs_turbo(self):
        spans = (
            [launch("a", "TurboCore", time_s=1.0)] * 4
            + [launch("a", "MPC", time_s=0.9, overhead_s=0.1,
                      model_evaluations=10, horizon=4)] * 4
        )
        summary = summarize_spans(spans)
        by_policy = {g["policy"]: g for g in summary["groups"]}
        mpc = by_policy["MPC"]
        # fig14 alpha accounting: overhead over its own total ...
        assert mpc["overhead_fraction"] == pytest.approx(0.4 / 4.0)
        # ... and overhead charged against the Turbo baseline's time.
        assert mpc["overhead_vs_turbo_pct"] == pytest.approx(100 * 0.4 / 4.0)
        # The baseline is charged against itself: exactly zero.
        assert by_policy["TurboCore"]["overhead_vs_turbo_pct"] == pytest.approx(0.0)
        assert mpc["mean_horizon"] == pytest.approx(4.0)
        assert mpc["model_evaluations"] == 40
        assert summary["launches"] == 8

    def test_quality_counters(self):
        spans = [
            launch("a", "MPC", fail_safe=True, pattern_hit=False),
            launch("a", "MPC", fallback=True, error="ValueError('x')"),
            launch("a", "MPC", tdp_throttled=True, hill_climb_steps=3.0),
        ]
        (group,) = summarize_spans(spans)["groups"]
        assert group["fail_safe"] == 1
        assert group["fallbacks"] == 1
        assert group["pattern_misses"] == 1
        assert group["tdp_throttled"] == 1
        assert group["hill_climb_steps"] == 3
        assert group["errors"] == ["ValueError('x')"]

    def test_non_launch_spans_ignored(self):
        spans = [launch("a", "MPC"), {"name": "other", "attributes": {}}]
        assert summarize_spans(spans)["launches"] == 1

    def test_energy_includes_overhead_energy(self):
        spans = [launch("a", "MPC", overhead_energy_j=0.5)]
        (group,) = summarize_spans(spans)["groups"]
        assert group["energy_j"] == pytest.approx(1.5)

    def test_format_summary_renders_groups_and_faults(self):
        spans = [
            launch("a", "TurboCore"),
            launch("a", "MPC", error="RuntimeError('boom')"),
        ]
        text = format_summary(summarize_spans(spans))
        assert "trace summary: 2 launch span(s)" in text
        assert "TurboCore" in text and "MPC" in text
        assert "RuntimeError('boom')" in text

    def test_roundtrip_through_jsonl(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        spans = [launch("a", "TurboCore"), launch("a", "MPC", overhead_s=0.25)]
        write_jsonl(spans, path)
        summary = summarize_spans(read_jsonl(path))
        assert summary == summarize_spans(spans)


SCHEMA = {
    "type": "object",
    "required": ["name", "attributes"],
    "properties": {
        "name": {"type": "string"},
        "attributes": {
            "type": "object",
            "required": ["app"],
            "properties": {"app": {"type": "string"},
                           "index": {"type": "integer"}},
        },
    },
}


class TestValidation:
    def test_valid_span(self):
        assert validate_span(launch("a", "MPC"), SCHEMA) == []

    def test_missing_required_key(self):
        span = launch("a", "MPC")
        del span["attributes"]["app"]
        problems = validate_span(span, SCHEMA)
        assert problems == ["$.attributes: missing required key 'app'"]

    def test_type_mismatch_reports_path(self):
        span = launch("a", "MPC", index="not-an-int")
        problems = validate_span(span, SCHEMA)
        assert problems == [
            "$.attributes.index: expected integer, got str"
        ]

    def test_bool_is_not_an_integer(self):
        span = launch("a", "MPC", index=True)
        assert validate_span(span, SCHEMA)

    def test_validate_trace_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        good, bad = launch("a", "MPC"), launch("b", "MPC")
        del bad["attributes"]["app"]
        write_jsonl([good, bad], path)
        problems = validate_trace_file(path, SCHEMA)
        assert problems == ["span[1].attributes: missing required key 'app'"]

    def test_checked_in_schema_accepts_real_trace(self, tmp_path, sim):
        import pathlib

        from repro.obs import make_instrumentation
        from repro.sim.turbocore import TurboCorePolicy
        from tests.obs.conftest import APP

        obs = make_instrumentation()
        sim.run(APP, TurboCorePolicy(), obs=obs)
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(obs.tracer.spans, path)
        schema_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "docs" / "trace.schema.json"
        )
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        assert validate_trace_file(path, schema) == []
