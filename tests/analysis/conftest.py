"""Shared helpers for the lint-framework test suite.

The fixture trees under ``fixtures/`` mirror the package layout the
path-scoped rules expect (``.../repro/sim/...`` and so on), so the same
rule code runs unchanged against the real tree and the fixtures.
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.analysis import parse_json, run_lint
from repro.cli import main

#: Repository root (tests/analysis/conftest.py -> repo).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Directory holding the per-rule fixture trees.
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint_fixture(*names, select=None, ignore=None):
    """Lint one or more fixture files/directories by name.

    Names are relative to :data:`FIXTURES`; the repo root is passed as
    the scoping root so fixture paths look like
    ``tests/analysis/fixtures/rl001/repro/sim/...`` to the rules.
    """
    paths = [str(FIXTURES / name) for name in names]
    return run_lint(paths, select=select, ignore=ignore, root=str(REPO_ROOT))


@pytest.fixture(scope="session")
def shipped_src_lint():
    """``repro lint src --format json``, run once per test session.

    Linting the whole tree is the slowest step in the suite, so every
    whole-tree test shares this one run of the CLI entry point: its
    exit code and its JSON report parsed back into a ``LintResult``.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", str(REPO_ROOT / "src"), "--format", "json"])
    return code, parse_json(out.getvalue())
