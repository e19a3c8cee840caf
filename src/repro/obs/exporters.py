"""Pluggable exporters: JSONL traces, Prometheus text, summary tables.

Three consumption styles for the same observability data:

* **JSONL traces** — one span per line, keys sorted, so traces are
  byte-comparable across runs and machines (:func:`write_jsonl`,
  :func:`read_jsonl`).
* **Prometheus text exposition** — the registry rendered in the
  ``# TYPE`` / ``name{label="v"} value`` format scrapers and
  ``promtool`` understand (:func:`prometheus_text`).
* **Human summary** — per-policy aggregates of a trace, including the
  overhead-fraction accounting Figure 14 uses
  (:func:`summarize_spans`, :func:`format_summary`).

The module also ships a dependency-free structural validator for the
checked-in trace schema (:func:`validate_span`), which CI uses to keep
the JSONL contract honest.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "write_prometheus",
    "summarize_spans",
    "format_summary",
    "validate_span",
    "validate_trace_file",
]


def _span_dict(span: Any) -> Dict[str, Any]:
    return span if isinstance(span, dict) else span.as_dict()


# ----- JSONL traces ----------------------------------------------------------


def write_jsonl(spans: Iterable[Any], path: str) -> int:
    """Write spans (dicts or Span objects) to a JSONL file.

    Returns:
        The number of spans written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            json.dump(_span_dict(span), handle, sort_keys=True)
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load every span of a JSONL trace file (blank lines skipped)."""
    spans: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid trace line: {exc}"
                ) from exc
    return spans


# ----- Prometheus text exposition --------------------------------------------


def _prom_labels(key: Iterable[Iterable[str]]) -> str:
    pairs = [tuple(pair) for pair in key]
    if not pairs:
        return ""
    rendered = ",".join(
        f'{name}="{_escape(value)}"' for name, value in pairs
    )
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def _escape_help(value: str) -> str:
    # HELP text escaping per the exposition format: only backslash and
    # newline (double quotes are legal in help text, unlike labels).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(registry: Any) -> str:
    """Render a registry (or a snapshot dict) as Prometheus text.

    Every metric family gets exactly one ``# HELP``/``# TYPE`` pair
    (help falls back to the metric name so parsers that require the
    line never break), histograms expose cumulative ``_bucket{le=...}``
    series ending in ``+Inf`` plus ``_sum`` and ``_count`` — the
    ``promtool check metrics`` exposition contract.
    """
    snapshot = registry if isinstance(registry, dict) else registry.snapshot()
    lines: List[str] = []
    seen: set = set()
    for entry in snapshot["metrics"]:
        name, kind = entry["name"], entry["kind"]
        if name in seen:
            raise ValueError(f"duplicate metric family {name!r} in snapshot")
        seen.add(name)
        lines.append(f"# HELP {name} {_escape_help(entry.get('help') or name)}")
        lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            for key, value in entry["series"]:
                lines.append(f"{name}{_prom_labels(key)} {_fmt(value)}")
        elif kind == "histogram":
            bounds = entry["buckets"]
            for key, state in entry["series"]:
                pairs = [tuple(pair) for pair in key]
                cumulative = 0
                for bound, count in zip(bounds, state["counts"]):
                    cumulative += count
                    labels = _prom_labels(pairs + [("le", _fmt(bound))])
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                cumulative += state["counts"][-1]
                labels = _prom_labels(pairs + [("le", "+Inf")])
                lines.append(f"{name}_bucket{labels} {cumulative}")
                lines.append(f"{name}_sum{_prom_labels(pairs)} {_fmt(state['sum'])}")
                lines.append(f"{name}_count{_prom_labels(pairs)} {state['count']}")
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: Any, path: str) -> str:
    """Write the Prometheus exposition of a registry to ``path``."""
    text = prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# ----- human-readable summary -------------------------------------------------


def summarize_spans(spans: Iterable[Any]) -> Dict[str, Any]:
    """Aggregate a trace into per-(session, policy) groups.

    For every group the summary reports launch counts, kernel and
    overhead time, the **overhead fraction** ``overhead / (kernel +
    overhead)`` — the same numerator/denominator split behind the α
    budget of the adaptive horizon — plus decision quality counters
    (fail-safes, fault fallbacks, pattern misses, mean horizon, model
    evaluations, hill-climb steps).  When the trace contains a Turbo
    Core group for the same app, each MPC group also reports
    ``overhead_vs_turbo_pct``: overhead time relative to the baseline's
    total time, exactly the Figure 14 performance-overhead metric.
    """
    groups: Dict[Any, Dict[str, Any]] = {}
    for raw in spans:
        span = _span_dict(raw)
        if span.get("name") != "launch":
            continue
        attrs = span.get("attributes", {})
        key = (attrs.get("session", ""), attrs.get("app", ""),
               attrs.get("policy", ""))
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "session": key[0],
                "app": key[1],
                "policy": key[2],
                "launches": 0,
                "kernel_time_s": 0.0,
                "overhead_time_s": 0.0,
                "energy_j": 0.0,
                "model_evaluations": 0,
                "hill_climb_steps": 0,
                "fail_safe": 0,
                "fallbacks": 0,
                "pattern_misses": 0,
                "tdp_throttled": 0,
                "horizon_total": 0,
                "errors": [],
            }
        group["launches"] += 1
        group["kernel_time_s"] += attrs.get("time_s", 0.0)
        group["overhead_time_s"] += attrs.get("overhead_time_s", 0.0)
        group["energy_j"] += attrs.get("energy_j", 0.0)
        group["energy_j"] += attrs.get("overhead_energy_j", 0.0)
        group["model_evaluations"] += attrs.get("model_evaluations", 0)
        group["hill_climb_steps"] += int(attrs.get("hill_climb_steps", 0))
        group["fail_safe"] += bool(attrs.get("fail_safe", False))
        group["fallbacks"] += bool(attrs.get("fallback", False))
        group["pattern_misses"] += not attrs.get("pattern_hit", True)
        group["tdp_throttled"] += bool(attrs.get("tdp_throttled", False))
        group["horizon_total"] += attrs.get("horizon", 0)
        if "error" in attrs:
            group["errors"].append(attrs["error"])

    baselines: Dict[str, float] = {}
    for group in groups.values():
        if group["policy"] in ("TurboCore", "Turbo Core", "turbo"):
            total = group["kernel_time_s"] + group["overhead_time_s"]
            baselines[group["app"]] = total

    ordered = []
    for key in sorted(groups):
        group = groups[key]
        total = group["kernel_time_s"] + group["overhead_time_s"]
        group["total_time_s"] = total
        group["overhead_fraction"] = (
            group["overhead_time_s"] / total if total > 0 else 0.0
        )
        group["mean_horizon"] = (
            group["horizon_total"] / group["launches"]
            if group["launches"] else 0.0
        )
        baseline = baselines.get(group["app"])
        if baseline:
            group["overhead_vs_turbo_pct"] = (
                100.0 * group["overhead_time_s"] / baseline
            )
        ordered.append(group)
    return {"groups": ordered, "launches": sum(g["launches"] for g in ordered)}


def format_summary(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_spans` output as an aligned text table."""
    headers = [
        "session", "policy", "launches", "kernel ms", "overhead ms",
        "ovh frac %", "vs turbo %", "mean H", "evals", "climb", "failsafe",
        "faults",
    ]

    def row(group: Dict[str, Any]) -> List[str]:
        vs_turbo = group.get("overhead_vs_turbo_pct")
        return [
            group["session"] or group["app"],
            group["policy"],
            str(group["launches"]),
            f"{group['kernel_time_s'] * 1e3:.2f}",
            f"{group['overhead_time_s'] * 1e3:.3f}",
            f"{100.0 * group['overhead_fraction']:.3f}",
            "-" if vs_turbo is None else f"{vs_turbo:.3f}",
            f"{group['mean_horizon']:.1f}",
            str(group["model_evaluations"]),
            str(group["hill_climb_steps"]),
            str(group["fail_safe"]),
            str(group["fallbacks"]),
        ]

    table = [headers] + [row(g) for g in summary["groups"]]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = [f"trace summary: {summary['launches']} launch span(s)"]
    for i, r in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    for group in summary["groups"]:
        for error in group["errors"]:
            lines.append(f"  fault[{group['session']}/{group['policy']}]: {error}")
    return "\n".join(lines)


# ----- schema validation ------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_span(span: Dict[str, Any], schema: Dict[str, Any],
                  path: str = "$") -> List[str]:
    """Structurally validate one span against a mini JSON schema.

    Supports the subset used by the checked-in trace schemas: ``type``
    (a name or list of names), ``required``, nested ``properties``, and
    a top-level ``oneOf`` branch list (a value is valid when any branch
    accepts it; on failure the closest branch's problems are reported).
    Returns a list of human-readable problems (empty when valid), so no
    third-party jsonschema dependency is needed.
    """
    branches = schema.get("oneOf")
    if branches is not None:
        attempts = [validate_span(span, branch, path) for branch in branches]
        best = min(attempts, key=len)
        suffix = f" (closest of {len(branches)} oneOf branches)"
        return [problem + suffix for problem in best]
    problems: List[str] = []
    expected: Union[str, List[str], None] = schema.get("type")
    if expected is not None:
        names = [expected] if isinstance(expected, str) else list(expected)
        if not any(_TYPE_CHECKS[name](span) for name in names):
            problems.append(
                f"{path}: expected {'/'.join(names)}, "
                f"got {type(span).__name__}"
            )
            return problems
    if isinstance(span, dict):
        for key in schema.get("required", ()):
            if key not in span:
                problems.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in span:
                problems.extend(
                    validate_span(span[key], subschema, f"{path}.{key}")
                )
    return problems


def validate_trace_file(path: str, schema: Dict[str, Any]) -> List[str]:
    """Validate every span of a JSONL trace; returns all problems."""
    problems: List[str] = []
    for index, span in enumerate(read_jsonl(path)):
        for problem in validate_span(span, schema, path=f"span[{index}]"):
            problems.append(problem)
    return problems
