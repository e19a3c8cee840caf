"""The lint engine: discovery, parsing, rule dispatch, suppression.

:func:`run_lint` is the single entry point used by the CLI and the
tests.  It discovers ``*.py`` files under the given paths, parses each
once, runs the selected rules on every module, filters suppressed
findings, and returns a :class:`LintResult` whose
:attr:`~LintResult.exit_code` follows the usual linter convention (0
clean, 1 findings, 2 unusable input).

Files that fail to parse produce a single :data:`PARSE_ERROR_ID`
finding instead of aborting the run, so one broken fixture cannot hide
findings in the rest of the tree.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.index import ModuleInfo, build_module
from repro.analysis.registry import Rule, resolve_selection

# Importing the rules package registers the built-in rule catalogue.
import repro.analysis.rules  # noqa: F401

__all__ = ["LintResult", "discover_files", "run_lint", "PARSE_ERROR_ID"]

#: Rule id attached to files that do not parse.
PARSE_ERROR_ID = "RL000"

#: Directory names never descended into.  ``fixtures`` keeps the
#: intentionally-broken lint fixtures under ``tests/analysis/fixtures/``
#: out of a whole-tree ``repro lint src tests`` run; passing a fixture
#: directory (or file) explicitly on the command line bypasses this
#: filter, which only prunes subdirectories during os.walk discovery.
_EXCLUDED_DIRS = frozenset(
    {".git", "__pycache__", ".cache", ".venv", "build", "dist", ".mypy_cache",
     ".ruff_cache", ".pytest_cache", "node_modules", "fixtures"}
)


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: Unsuppressed findings, sorted by (path, line, col, id).
        files_checked: Number of files parsed (or attempted).
        rules_run: Ids of the rules that executed.
        suppressed: Count of findings silenced by directives.
        timings: Wall-clock seconds per rule id (``--stats``).
            Excluded from equality and from the JSON report — timing
            jitter must not break report round-trips.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()
    suppressed: int = 0
    timings: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def errors(self) -> int:
        """Number of error-severity findings."""
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        """Number of warning-severity findings."""
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    @property
    def exit_code(self) -> int:
        """0 when no error findings remain, 1 otherwise."""
        return 1 if self.errors else 0


def discover_files(paths: Sequence[str]) -> List[str]:
    """Every ``*.py`` file under the given files/directories, sorted.

    Missing paths raise ``FileNotFoundError`` so a mistyped CLI path
    fails loudly rather than linting nothing.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _EXCLUDED_DIRS
                )
                files.extend(
                    os.path.join(dirpath, name)
                    for name in filenames
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return sorted(dict.fromkeys(files))


def _parse_all(
    files: Iterable[str], root: Optional[str]
) -> Tuple[List[ModuleInfo], List[Finding]]:
    modules: List[ModuleInfo] = []
    parse_failures: List[Finding] = []
    for path in files:
        try:
            modules.append(build_module(path, root=root))
        except SyntaxError as exc:
            parse_failures.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=PARSE_ERROR_ID,
                    severity=Severity.ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    return modules, parse_failures


def _run_rules(
    rules: Sequence[Rule], modules: Sequence[ModuleInfo]
) -> Tuple[List[Finding], Dict[str, float]]:
    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    for rule in rules:
        start = time.perf_counter()
        for module in modules:
            findings.extend(rule.check(module))
        timings[rule.id] = time.perf_counter() - start
    return findings, timings


def _apply_suppressions(
    findings: Iterable[Finding], modules: Sequence[ModuleInfo]
) -> Tuple[List[Finding], int]:
    by_path = {module.path: module.suppressions for module in modules}
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        directives = by_path.get(finding.path)
        if directives is not None and directives.is_suppressed(finding):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
) -> LintResult:
    """Lint a set of paths with the selected rules.

    Args:
        paths: Files and/or directories to lint.
        select: Rule ids to run (default: all registered).
        ignore: Rule ids to skip.
        root: Base directory for path scoping; defaults to the current
            working directory (paths outside it keep their given form).

    Returns:
        The sorted, suppression-filtered :class:`LintResult`.
    """
    rules = resolve_selection(select, ignore)
    files = discover_files(paths)
    modules, findings = _parse_all(files, root)
    rule_findings, timings = _run_rules(rules, modules)
    findings.extend(rule_findings)
    kept, suppressed = _apply_suppressions(findings, modules)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return LintResult(
        findings=kept,
        files_checked=len(files),
        rules_run=tuple(rule.id for rule in rules),
        suppressed=suppressed,
        timings=timings,
    )
