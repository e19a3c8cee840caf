"""Text and JSON reporters for lint results.

The JSON form is versioned and round-trips losslessly through
:func:`parse_json`, which is what lets CI archive lint output and the
tests assert schema stability.

Schema history:

* **1** — findings + summary (files/findings/errors/warnings/
  suppressed).
* **2** — adds per-rule metadata (``rules``: id/name/scope/severity
  and whether the rule needs the cross-module index) and a summary
  count of findings absorbed by a baseline file.  Per-rule timings
  are deliberately *not* serialized: reports must be byte-stable for
  identical trees.
* **3** — drops that summary count together with baseline files.
* **4** — drops ``scope`` and ``needs_index`` from the rule metadata:
  every rule checks one module at a time.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules, get_rule

__all__ = [
    "render_text",
    "render_json",
    "parse_json",
    "render_catalogue",
    "render_stats",
    "REPORT_SCHEMA",
]

#: Bump when the JSON report layout changes.
REPORT_SCHEMA = 4


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in result.findings]
    lines.append(
        f"{result.files_checked} files checked, "
        f"{len(result.findings)} findings "
        f"({result.errors} errors, {result.warnings} warnings), "
        f"{result.suppressed} suppressed"
    )
    return "\n".join(lines)


def _rule_meta(rule_id: str) -> Dict[str, Any]:
    try:
        rule = get_rule(rule_id)
    except KeyError:
        # A report parsed from an older run may name rules this build
        # no longer registers; keep the id, degrade the rest.
        return {"id": rule_id, "name": None, "severity": None}
    return {
        "id": rule.id,
        "name": rule.name,
        "severity": rule.severity.value,
    }


def render_json(result: LintResult) -> str:
    """Stable machine-readable report (see :data:`REPORT_SCHEMA`)."""
    payload: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "tool": "repro-lint",
        "rules_run": list(result.rules_run),
        "rules": [_rule_meta(rule_id) for rule_id in result.rules_run],
        "findings": [finding.as_dict() for finding in result.findings],
        "summary": {
            "files_checked": result.files_checked,
            "findings": len(result.findings),
            "errors": result.errors,
            "warnings": result.warnings,
            "suppressed": result.suppressed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def parse_json(text: str) -> LintResult:
    """Rebuild a :class:`LintResult` from :func:`render_json` output."""
    payload = json.loads(text)
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unsupported report schema: {payload.get('schema')!r}")
    return LintResult(
        findings=[Finding.from_dict(entry) for entry in payload["findings"]],
        files_checked=int(payload["summary"]["files_checked"]),
        rules_run=tuple(payload["rules_run"]),
        suppressed=int(payload["summary"]["suppressed"]),
    )


def render_catalogue() -> str:
    """The registered rule catalogue, one line per rule."""
    return "\n".join(
        f"{rule.id} {rule.name} [{rule.severity.value}]: {rule.description}"
        for rule in all_rules()
    )


def render_stats(result: LintResult) -> str:
    """Per-rule wall-clock and finding counts (``--stats``)."""
    counts: Dict[str, int] = {}
    for finding in result.findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    lines = ["rule     time      findings"]
    for rule_id in result.rules_run:
        seconds = result.timings.get(rule_id)
        timed = f"{seconds * 1000.0:7.1f}ms" if seconds is not None else "       —"
        lines.append(f"{rule_id:<8} {timed}  {counts.get(rule_id, 0):8d}")
    total = sum(result.timings.values())
    lines.append(f"total    {total * 1000.0:7.1f}ms")
    return "\n".join(lines)
