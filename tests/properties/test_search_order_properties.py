"""Property-based tests for the search-order heuristic."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.search_order import build_search_order

profile_st = st.lists(
    st.tuples(st.floats(0.05, 10.0), st.floats(1e-3, 5.0)), min_size=1, max_size=30
)


def _order_from(profile, target=1.0):
    throughputs = [thr for thr, _ in profile]
    cumulative = []
    insts = elapsed = 0.0
    for thr, time_s in profile:
        insts += thr * time_s
        elapsed += time_s
        cumulative.append(insts / elapsed)
    return build_search_order(throughputs, cumulative, target), throughputs, cumulative


@given(profile_st)
def test_order_is_permutation(profile):
    order, _, _ = _order_from(profile)
    assert sorted(order.order) == list(range(len(profile)))


@given(profile_st)
def test_groups_partition_positions(profile):
    order, _, cumulative = _order_from(profile)
    above = order.above_target
    for i, cum in enumerate(cumulative):
        assert (i in above) == (cum >= 1.0)


@given(profile_st)
def test_above_group_ascending_below_descending(profile):
    order, throughputs, _ = _order_from(profile)
    above = [p for p in order.order if p in order.above_target]
    below = [p for p in order.order if p not in order.above_target]
    above_thr = [throughputs[p] for p in above]
    below_thr = [throughputs[p] for p in below]
    assert above_thr == sorted(above_thr)
    assert below_thr == sorted(below_thr, reverse=True)


@given(profile_st)
def test_above_group_comes_first(profile):
    order, _, _ = _order_from(profile)
    seen_below = False
    for position in order.order:
        if position in order.above_target:
            assert not seen_below
        else:
            seen_below = True


@given(profile_st)
def test_every_window_ends_with_current(profile):
    order, _, _ = _order_from(profile)
    for i in range(len(order)):
        for horizon in (1, 2, len(order)):
            window = order.window(i, horizon)
            assert window[-1] == i
            assert all(i <= p < i + horizon for p in window)


@given(profile_st)
def test_window_positions_follow_search_order(profile):
    order, _, _ = _order_from(profile)
    rank = {p: r for r, p in enumerate(order.order)}
    for i in range(len(order)):
        window = order.window(i)
        ranks = [rank[p] for p in window]
        assert ranks == sorted(ranks)


@given(profile_st)
def test_mean_prefix_length_bounds(profile):
    order, _, _ = _order_from(profile)
    assert 1.0 <= order.mean_prefix_length() <= len(profile)
