"""End-to-end ``repro lint`` CLI behaviour."""

import json

import pytest

from repro.cli import main

from tests.analysis.conftest import FIXTURES, REPO_ROOT

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
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
        assert rule_id in out


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


def test_lint_shipped_src_exits_zero(capsys):
    """The acceptance bar: every rule over all of ``src`` finds nothing.

    Drives the ``repro lint`` entry point itself: every registered rule,
    the flow-sensitive ones included, with no baseline to absorb
    findings.
    """
    code = main(["lint", str(REPO_ROOT / "src"), "--format", "json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["findings"] == 0
    assert summary["baselined"] == 0
    assert summary["files_checked"] > 50
