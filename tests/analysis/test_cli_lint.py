"""End-to-end ``repro lint`` CLI behaviour."""

import json

import pytest

from repro.analysis import render_stats
from repro.cli import main

from tests.analysis.conftest import FIXTURES, lint_fixture

pytestmark = pytest.mark.analysis


def test_lint_bad_fixture_json_exit_one(capsys):
    code = main(["lint", str(FIXTURES / "rl002" / "bad_rng.py"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro-lint"
    assert payload["summary"]["errors"] == 3


def test_lint_good_fixture_exit_zero(capsys):
    code = main(["lint", str(FIXTURES / "rl004" / "good_pool.py")])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_list_rules(capsys):
    code = main(["lint", "--list-rules"])
    assert code == 0
    out = capsys.readouterr().out
    listed = {line.split()[0] for line in out.splitlines()}
    assert listed == {"RL001", "RL002", "RL004"}


def test_unknown_rule_exits_two(capsys):
    code = main(["lint", str(FIXTURES / "rl002"), "--select", "RL999"])
    assert code == 2
    assert "RL999" in capsys.readouterr().err


def test_missing_path_exits_two(capsys):
    code = main(["lint", str(FIXTURES / "does_not_exist")])
    assert code == 2
    assert "repro lint:" in capsys.readouterr().err


def test_select_and_ignore_flags(capsys):
    code = main(
        ["lint", str(FIXTURES / "rl002" / "bad_rng.py"), "--ignore", "RL002"]
    )
    assert code == 0


def test_lint_shipped_src_exits_zero(shipped_src_lint):
    """The acceptance bar: every rule over all of ``src`` finds nothing.

    Drives the ``repro lint`` entry point itself with every registered
    rule.
    """
    code, result = shipped_src_lint
    assert code == 0
    assert len(result.findings) == 0
    assert result.files_checked > 50


def test_stats_reports_each_rule(capsys):
    result = lint_fixture("rl002")
    stats = render_stats(result)
    for rule_id in result.rules_run:
        assert rule_id in stats
    assert stats.splitlines()[0].split() == ["rule", "time", "findings"]
    code = main(
        ["lint", str(FIXTURES / "rl002" / "bad_rng.py"), "--select", "RL002",
         "--stats"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "RL002" in out and "ms" in out
