"""Unit tests for the search-order heuristic (Figure 7)."""

import pytest

from repro.core.search_order import SearchOrder, build_search_order
from repro.experiments.fig7_search_order import example_search_order


class TestBuild:
    def test_paper_example_order(self):
        order = example_search_order()
        # The paper's (3, 2, 1, 6, 5, 4), zero-based.
        assert order.order == (2, 1, 0, 5, 4, 3)

    def test_paper_example_groups(self):
        order = example_search_order()
        assert order.above_target == frozenset({0, 1, 2})

    def test_all_above_target(self):
        order = build_search_order([2.0, 3.0, 1.5], [2.0, 2.5, 2.2], 1.0)
        assert order.above_target == frozenset({0, 1, 2})
        # ascending by kernel throughput
        assert order.order == (2, 0, 1)

    def test_all_below_target(self):
        order = build_search_order([0.2, 0.5, 0.4], [0.2, 0.3, 0.35], 1.0)
        assert order.above_target == frozenset()
        # descending by kernel throughput
        assert order.order == (1, 2, 0)

    def test_ties_break_by_index(self):
        order = build_search_order([1.0, 1.0], [2.0, 2.0], 1.5)
        assert order.order == (0, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_search_order([1.0], [1.0, 2.0], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_search_order([], [], 1.0)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            SearchOrder(order=(0, 0, 1), above_target=frozenset())


class TestWindows:
    def test_paper_worked_example(self):
        order = example_search_order()
        # 1-based in the paper: kernel 1 -> (3,2,1) ... kernel 4 -> (6,5,4).
        assert order.window(0) == [2, 1, 0]
        assert order.window(1) == [2, 1]
        assert order.window(2) == [2]
        assert order.window(3) == [5, 4, 3]
        assert order.window(4) == [5, 4]
        assert order.window(5) == [5]

    def test_window_always_ends_with_current(self):
        order = example_search_order()
        for i in range(len(order)):
            assert order.window(i)[-1] == i

    def test_horizon_limits_window(self):
        order = example_search_order()
        # Horizon 2 at kernel 0: only positions within [0, 2) qualify.
        window = order.window(0, horizon=2)
        assert window[-1] == 0
        assert all(0 <= p < 2 for p in window)

    def test_horizon_one_is_self_only(self):
        order = example_search_order()
        for i in range(len(order)):
            assert order.window(i, horizon=1) == [i]

    def test_out_of_range_current(self):
        with pytest.raises(ValueError):
            example_search_order().window(10)

    def test_prefix_lengths(self):
        order = example_search_order()
        assert order.prefix_length(0) == 3
        assert order.prefix_length(3) == 3
        assert order.prefix_length(5) == 1

    def test_mean_prefix_length(self):
        order = example_search_order()
        assert order.mean_prefix_length() == pytest.approx((3 + 2 + 1 + 3 + 2 + 1) / 6)
