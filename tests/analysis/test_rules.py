"""Per-rule behaviour: each bad fixture is caught, each good one is clean."""

import pytest

from tests.analysis.conftest import lint_fixture

pytestmark = pytest.mark.analysis


def _by_rule(result, rule_id):
    return [f for f in result.findings if f.rule_id == rule_id]


def test_rl001_flags_wallclock_on_hot_paths():
    result = lint_fixture("rl001")
    findings = _by_rule(result, "RL001")
    assert len(findings) == 3
    assert all(f.path.endswith("bad_wallclock.py") for f in findings)
    assert any("time.time" in f.message for f in findings)


def test_rl001_allows_injected_clock_and_engine_timing():
    assert lint_fixture("rl001/repro/sim/good_clock.py").findings == []
    assert lint_fixture("rl001/repro/engine/allowed_timing.py").findings == []


def test_rl002_flags_unseeded_rngs():
    result = lint_fixture("rl002/bad_rng.py")
    assert len(_by_rule(result, "RL002")) == 3


def test_rl002_allows_seeded_rngs():
    assert lint_fixture("rl002/good_rng.py").findings == []


def test_rl004_flags_unpicklable_pool_usage():
    result = lint_fixture("rl004/bad_pool.py")
    findings = _by_rule(result, "RL004")
    assert len(findings) == 6
    messages = " ".join(f.message for f in findings)
    assert "lambda" in messages
    assert "helper" in messages
    assert "lock" in messages
    assert "open file" in messages


def test_rl004_allows_module_level_targets():
    assert lint_fixture("rl004/good_pool.py").findings == []


def test_shipped_tree_is_clean(shipped_src_lint):
    """The acceptance bar: ``repro lint src`` exits 0 on the repo itself."""
    _, result = shipped_src_lint
    assert result.findings == []
    assert result.exit_code == 0
    assert result.files_checked > 50
