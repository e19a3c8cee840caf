"""The benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import (  # noqa: E402
    FailureCount,
    count_failures,
    decision_digest,
    host_factors,
    overhead_pct,
    self_times,
    tail_percentile,
)
from tracing import LAYERS, Recorder, layer_metrics  # noqa: E402


class Decision:
    """Stand-in for a recorded decision: only ``as_dict`` is read."""

    def __init__(self, config, energy, fail_safe=False, fallback=False):
        self.fields = {"config": config, "energy_j": energy,
                       "fail_safe": fail_safe, "fallback": fallback}

    def as_dict(self):
        return dict(self.fields)


# ----- tail percentile ---------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    # 100 samples: p99 leaves 1 beyond, p95 leaves 5, p90 leaves 10.
    assert tail_percentile(range(1, 101)) == (90.0, 90, 10)
    # 1000 samples reach p99 with exactly 10 beyond.
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 10)
    # 2000 samples reach p99.5.
    assert tail_percentile(range(1, 2001)) == (99.5, 1990, 10)


def test_tail_reports_count_and_ignores_input_order():
    pct, value, beyond = tail_percentile([5.0, 1.0, 3.0] * 100)
    assert (pct, value) == (95.0, 5.0)
    assert beyond == 15


def test_tail_needs_enough_samples():
    assert tail_percentile(range(20)) == (50.0, 9, 10)
    with pytest.raises(ValueError):
        tail_percentile(range(19))


# ----- self time --------------------------------------------------------------------


def test_self_time_with_nested_and_sibling_spans():
    # root [0, 10] has siblings A [1, 4] and B [5, 9]; A has child C [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(start, end, parent)) == 10.0


def test_self_time_counts_overlapping_children_once():
    assert self_times([0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0])[0] == 4.0


def test_recorder_spans_add_up_to_wall_time():
    module = types.ModuleType("perfbench_toy")

    def leaf():
        return sum(range(2000))

    def outer():
        module.leaf()
        module.leaf()
        return sum(range(4000))

    module.leaf, module.outer = leaf, outer
    sys.modules["perfbench_toy"] = module
    rec = Recorder()
    rec.install([("ml", "toy.leaf", ("perfbench_toy", None, "leaf")),
                 ("core", "toy.outer", ("perfbench_toy", None, "outer"))])
    try:
        lo = rec.mark()
        module.outer()
        module.outer()
        hi = rec.mark()
    finally:
        rec.uninstall()
        del sys.modules["perfbench_toy"]
    assert module.leaf is leaf and module.outer is outer
    assert list(rec.parent) == [-1, 0, 0, -1, 3, 3]
    selfs = rec.self_by_name(lo, hi)
    roots = rec.root_time(lo, hi)
    assert selfs["toy.leaf"] + selfs["toy.outer"] == pytest.approx(roots)
    wall = roots + 0.5
    layers = layer_metrics(
        selfs, dict(zip(rec.names, rec.layer_of)), wall, roots, launches=2
    )
    parts = sum(layers[f"layer.{layer}_ms_per_launch"] for layer in LAYERS)
    total = parts + layers["layer.unattributed_ms_per_launch"]
    assert total == pytest.approx(layers["trace.wall_ms_per_launch"])
    assert layers["layer.unattributed_ms_per_launch"] == pytest.approx(250.0)


# ----- reference check --------------------------------------------------------------


def _stream(energies, **flags):
    return [Decision("c1", e, **flags) for e in energies]


def test_digest_mismatch_fails_every_launch_of_that_session():
    good = decision_digest(_stream([1.0, 2.0]))
    drifted = decision_digest(_stream([1.0, 2.0000000001]))
    assert good != drifted
    failures = FailureCount()
    count_failures(
        launches={"a": 5, "b": 7},
        digests={"a": "x", "b": drifted},
        faults={},
        reference={"a": "x", "b": good},
        into=failures,
    )
    assert (failures.attempted, failures.failed) == (12, 7)
    assert failures.reasons == {"decision differs from reference": 7}


def test_session_missing_from_a_pass_fails():
    failures = FailureCount()
    count_failures({"a": 3, "b": 4}, {"a": "x"}, {}, {"a": "x", "b": "y"},
                   failures)
    assert (failures.attempted, failures.failed) == (7, 4)


def test_policy_fail_safe_is_an_outcome_not_a_failure():
    stream = _stream([1.0, 2.0, 3.0], fail_safe=True)
    digest = decision_digest(stream)
    failures = FailureCount()
    count_failures({"a": 3}, {"a": digest}, {"a": 0}, {"a": digest}, failures)
    assert (failures.attempted, failures.failed) == (3, 0)
    assert failures.failed_pct == 0.0


def test_fault_fallbacks_fail_only_their_launches():
    failures = FailureCount()
    count_failures({"a": 3}, {"a": "x"}, {"a": 2}, None, failures)
    assert (failures.attempted, failures.failed) == (3, 2)
    assert failures.failed_pct == pytest.approx(200.0 / 3)


# ----- traced-run overhead ----------------------------------------------------------


def test_overhead_is_traced_over_untraced_time_per_launch():
    assert overhead_pct(12.0, 10.0) == pytest.approx(20.0)
    assert overhead_pct(9.0, 10.0) == pytest.approx(-10.0)
    with pytest.raises(ValueError):
        overhead_pct(1.0, 0.0)


# ----- host speed -------------------------------------------------------------------


def test_host_factor_is_reference_over_nearby_block_median():
    # Blocks before samples 0, 2 and 4 and after the last (5); each
    # segment uses the blocks k-1 .. k+2 around it.
    blocks = [(0, 2.0), (2, 2.0), (4, 4.0), (5, 4.0)]
    factors = host_factors(blocks, 5, ref_s=1.0)
    # Samples 0-1: blocks 0..2 -> median 2; 2-3: blocks 0..3 -> 3;
    # sample 4: blocks 1..3 -> 4.
    assert factors == [0.5, 0.5, 1 / 3, 1 / 3, 0.25]


def test_host_factor_ignores_a_single_slow_block():
    blocks = [(i, 1.0) for i in range(10)] + [(5, 50.0)]
    blocks.sort(key=lambda b: b[0])
    assert all(f == 1.0 for f in host_factors(blocks, 10, ref_s=1.0))


def test_host_factor_without_blocks_keeps_measured_times():
    assert host_factors([], 3, ref_s=0.008) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        host_factors([(1, 1.0)], 3, ref_s=1.0)


def test_a_uniformly_slower_host_states_the_same_times():
    fast = [0.010, 0.012, 0.030]
    slow = [t * 1.8 for t in fast]
    f_fast = host_factors([(0, 0.008), (3, 0.008)], 3, ref_s=0.008)
    f_slow = host_factors([(0, 0.0144), (3, 0.0144)], 3, ref_s=0.008)
    stated_fast = [t * f for t, f in zip(fast, f_fast)]
    stated_slow = [t * f for t, f in zip(slow, f_slow)]
    assert stated_slow == pytest.approx(stated_fast)
