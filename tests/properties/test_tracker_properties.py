"""Property-based tests for the performance tracker's headroom algebra."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.tracker import PerformanceTracker

updates_st = st.lists(
    st.tuples(st.floats(1.0, 1e9), st.floats(1e-6, 10.0)), min_size=0, max_size=20
)
target_st = st.floats(1.0, 1e9)
expected_st = st.floats(0.0, 1e9)


def _tracker(target, updates):
    tracker = PerformanceTracker(target)
    for insts, time_s in updates:
        tracker.update(insts, time_s)
    return tracker


@given(target_st, updates_st, expected_st)
def test_headroom_definition(target, updates, expected):
    tracker = _tracker(target, updates)
    headroom = tracker.headroom_s(expected)
    lhs = (tracker.instructions + expected) / target - tracker.time_s
    assert abs(headroom - lhs) < 1e-6 * max(1.0, abs(lhs))


@given(target_st, updates_st, expected_st)
def test_admits_at_headroom_boundary(target, updates, expected):
    tracker = _tracker(target, updates)
    headroom = tracker.headroom_s(expected)
    assume(headroom > 1e-9)
    assert tracker.admits(expected, headroom * 0.999)
    assert not tracker.admits(expected, headroom * 1.001 + 1e-9)


@given(target_st, updates_st, expected_st)
def test_running_exactly_at_headroom_meets_target(target, updates, expected):
    tracker = _tracker(target, updates)
    headroom = tracker.headroom_s(expected)
    assume(headroom > 1e-9)
    tracker.update(expected, headroom)
    assert tracker.throughput >= target * (1 - 1e-9)


@given(target_st, updates_st)
def test_copy_equivalence(target, updates):
    tracker = _tracker(target, updates)
    clone = tracker.copy()
    assert clone.instructions == tracker.instructions
    assert clone.time_s == tracker.time_s
    clone.update(1.0, 1.0)
    assert clone.instructions != tracker.instructions


@given(target_st, updates_st)
def test_above_target_matches_throughput(target, updates):
    tracker = _tracker(target, updates)
    assert tracker.above_target() == (tracker.throughput >= target)
