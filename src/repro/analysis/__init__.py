"""AST-based static analysis enforcing the repo's runtime invariants.

``repro lint`` machine-checks the correctness properties the engine,
runtime, and obs layers rely on but cannot enforce at runtime:
simulated-time discipline (RL001), seeded randomness (RL002) and
process-pool pickle safety (RL004).  Invariants a test can pin
(serializer and trace-format coverage, describable fingerprint inputs,
obs purity, memo staleness, mutable defaults, budget conservation, the
metrics registry's lock discipline) are pinned by tests instead.  See
``docs/ANALYSIS.md`` for the full catalogue, the suppression syntax,
and how to add a rule.

Public API::

    from repro.analysis import run_lint, render_text, render_json

    result = run_lint(["src"])          # LintResult
    print(render_text(result))
    raise SystemExit(result.exit_code)
"""

from repro.analysis.engine import (
    LintResult,
    PARSE_ERROR_ID,
    discover_files,
    run_lint,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, get_rule, rule
from repro.analysis.reporters import (
    REPORT_SCHEMA,
    parse_json,
    render_catalogue,
    render_json,
    render_stats,
    render_text,
)

__all__ = [
    "Finding",
    "LintResult",
    "PARSE_ERROR_ID",
    "REPORT_SCHEMA",
    "Rule",
    "Severity",
    "all_rules",
    "discover_files",
    "get_rule",
    "parse_json",
    "render_catalogue",
    "render_json",
    "render_stats",
    "render_text",
    "rule",
    "run_lint",
]
