"""Property-based tests for the adaptive horizon generator."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.horizon import AdaptiveHorizonGenerator

params_st = st.fixed_dictionaries(
    {
        "num_kernels": st.integers(1, 40),
        "mean_prefix_length": st.floats(1.0, 20.0),
        "ppk_overhead_s": st.floats(1e-6, 0.01),
        "baseline_total_time_s": st.floats(0.05, 5.0),
        "alpha": st.floats(0.0, 0.3),
    }
)

history_st = st.lists(
    st.tuples(st.floats(1e-4, 0.2), st.floats(0.0, 1e-3)), max_size=20
)

index_st = st.integers(0, 60)


def _generator(params, history):
    gen = AdaptiveHorizonGenerator(**params)
    for kernel_time, overhead in history:
        gen.record(kernel_time, overhead)
    return gen


@given(params_st, history_st, index_st)
def test_horizon_always_within_bounds(params, history, index):
    gen = _generator(params, history)
    h = gen.horizon(index)
    assert 0 <= h <= params["num_kernels"]
    assert isinstance(h, int)


@given(params_st, history_st, index_st)
def test_more_elapsed_never_lengthens_horizon(params, history, index):
    lean = _generator(params, history)
    laden = _generator(params, history)
    laden.record(0.05, 0.001)
    assert laden.horizon(index) <= lean.horizon(index)


@given(params_st, history_st, index_st, st.floats(0.01, 0.3))
def test_larger_alpha_never_shortens_horizon(params, history, index, bump):
    small = _generator(params, history)
    big_params = dict(params)
    big_params["alpha"] = params["alpha"] + bump
    big = _generator(big_params, history)
    assert big.horizon(index) >= small.horizon(index)


@given(params_st, history_st, index_st)
def test_free_optimizer_gets_full_horizon(params, history, index):
    free_params = dict(params)
    free_params["ppk_overhead_s"] = 0.0
    gen = _generator(free_params, history)
    assert gen.horizon(index) == params["num_kernels"]


@given(params_st, history_st)
def test_reset_restores_fresh_horizons(params, history):
    gen = _generator(params, history)
    gen.reset()
    fresh = AdaptiveHorizonGenerator(**params)
    for i in (0, 1, 5):
        assert gen.horizon(i) == fresh.horizon(i)
