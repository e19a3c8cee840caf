"""Framework-level behaviour: discovery, selection, suppression, exit codes."""

import pytest

from repro.analysis import PARSE_ERROR_ID, all_rules, discover_files, get_rule, run_lint

from tests.analysis.conftest import FIXTURES, REPO_ROOT, lint_fixture

pytestmark = pytest.mark.analysis


def test_discovery_skips_fixture_trees():
    found = discover_files([str(REPO_ROOT / "tests" / "analysis")])
    assert found, "the test modules themselves should be discovered"
    assert not any("fixtures" in path.split("/") for path in found)


def test_explicit_fixture_path_bypasses_exclusion():
    found = discover_files([str(FIXTURES / "rl001")])
    assert any(path.endswith("bad_wallclock.py") for path in found)


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        discover_files([str(FIXTURES / "no_such_dir")])


def test_unknown_rule_id_raises_keyerror():
    with pytest.raises(KeyError):
        get_rule("RL999")
    with pytest.raises(KeyError):
        run_lint([str(FIXTURES / "rl002")], select=["RL999"])


def test_select_restricts_rules():
    result = lint_fixture("rl002", select=["RL001"])
    assert result.rules_run == ("RL001",)
    assert result.findings == []


def test_ignore_removes_rules():
    result = lint_fixture("rl002", ignore=["RL002"])
    assert "RL002" not in result.rules_run
    assert result.findings == []


def test_parse_error_becomes_rl000_finding():
    result = lint_fixture("broken")
    assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]
    assert result.exit_code == 1
    assert "does not parse" in result.findings[0].message


def test_inline_suppression():
    result = lint_fixture("suppressed/inline.py")
    assert result.findings == []
    assert result.suppressed == 1


def test_file_wide_suppression():
    result = lint_fixture("suppressed/file_wide.py")
    assert result.findings == []
    assert result.suppressed == 2


def test_all_wildcard_suppression_covers_every_rule():
    result = lint_fixture("suppressed/all_rules.py")
    assert result.findings == []
    # One RL002 (unseeded default_rng) and one RL004 (a lambda
    # submitted to a process pool).
    assert result.suppressed == 2


def test_exit_codes():
    assert lint_fixture("rl004/good_pool.py").exit_code == 0
    assert lint_fixture("rl004/bad_pool.py").exit_code == 1


def test_findings_are_sorted():
    result = lint_fixture("rl001", "rl002")
    keys = [(f.path, f.line, f.col, f.rule_id) for f in result.findings]
    assert keys == sorted(keys)


def test_files_checked_counts_every_file():
    result = lint_fixture("rl001")
    assert result.files_checked == 3


def test_registered_rule_ids():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) == {"RL001", "RL002", "RL004"}
