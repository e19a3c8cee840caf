"""Per-rule behaviour: each bad fixture is caught, each good one is clean."""

import pytest

from repro.analysis import run_lint

from tests.analysis.conftest import REPO_ROOT, lint_fixture

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


def test_rl003_flags_unfingerprintable_fields():
    result = lint_fixture("rl003")
    findings = _by_rule(result, "RL003")
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    assert "CachedRequest.transform" in messages
    assert "RacySpec.guard" in messages
    # GoodSpec has only describable field types and stays clean.
    assert "GoodSpec" not in messages


def test_rl003_flags_serializer_coverage_gap():
    result = lint_fixture("rl003_serialize")
    findings = _by_rule(result, "RL003")
    assert len(findings) == 1
    assert "resumed_at" in findings[0].message


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


def test_rl005_flags_obs_mutation_and_handle_installs():
    result = lint_fixture("rl005")
    findings = _by_rule(result, "RL005")
    assert len(findings) == 4
    messages = " ".join(f.message for f in findings)
    assert "sim.last_probe" in messages
    assert "sim.obs" in messages
    assert "runtime.tracer" in messages


def test_rl005_allows_per_call_instrumentation():
    assert lint_fixture("rl005/repro/obs/good_exporter.py").findings == []
    assert lint_fixture("rl005/project/good_install.py").findings == []


def test_rl006_flags_mutable_defaults():
    result = lint_fixture("rl006/bad_defaults.py")
    findings = _by_rule(result, "RL006")
    assert len(findings) == 5
    messages = " ".join(f.message for f in findings)
    assert "ConfigSpace()" in messages
    assert "Config.knobs" in messages
    assert "Config.targets" in messages


def test_rl006_allows_none_and_default_factory():
    assert lint_fixture("rl006/good_defaults.py").findings == []


def test_rl008_flags_trace_format_and_comparator_gaps():
    result = lint_fixture("rl008")
    findings = _by_rule(result, "RL008")
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    # Facet 1: a kernel field the format module never serializes.
    assert "FixtureKernel.warp_occupancy" in messages
    assert "format.py" in messages
    # Facet 2: a decision field the replay comparator never checks.
    assert "RecordedDecision.cache_energy_j" in messages
    assert "replay.py" in messages
    # Fields both sides mention stay clean.
    assert "compute_work" not in messages
    assert "time_s" not in messages


def test_rl008_real_trace_format_covers_kernel_fields():
    """The shipped format/replay modules cover every field (RL008 clean)."""
    result = run_lint(
        [str(REPO_ROOT / "src" / "repro" / "workloads")],
        select=["RL008"],
        root=str(REPO_ROOT),
    )
    assert result.findings == []


def test_rl013_flags_unasserted_apportion_paths():
    result = lint_fixture("rl013/bad")
    findings = _by_rule(result, "RL013")
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    # No assert at all, and an assert that neither sums nor bounds.
    assert "UncheckedAllocator.apportion" in messages
    assert "WrongAssertAllocator.apportion" in messages
    assert all(f.path.endswith("budget.py") for f in findings)


def test_rl013_allows_asserted_apportion_paths():
    """Direct asserts and helper-chain asserts both satisfy the rule."""
    assert lint_fixture("rl013/good").findings == []


def test_rl013_real_allocator_carries_the_assertion():
    """The shipped BudgetAllocator.apportion stays covered (RL013 clean)."""
    result = run_lint(
        [str(REPO_ROOT / "src" / "repro" / "fleet")],
        select=["RL013"],
        root=str(REPO_ROOT),
    )
    assert result.findings == []


def test_shipped_tree_is_clean(shipped_src_lint):
    """The acceptance bar: ``repro lint src`` exits 0 on the repo itself."""
    assert shipped_src_lint.findings == []
    assert shipped_src_lint.exit_code == 0
    assert shipped_src_lint.files_checked > 50
