"""The experiment->request matrix must cover what experiments consume.

For each mapped experiment key: prefetch its requests, then run the
experiment and assert the engine computed nothing *after* the prefetch —
i.e. the matrix predicted every policy run the module pulls.
"""

import pytest

from repro.experiments.matrix import requests_for
from repro.experiments.runner import ALL_EXPERIMENTS, run_all

from .conftest import small_context

pytestmark = pytest.mark.engine

#: Experiments whose request sets the reduced context can exercise
#: quickly.  fig3 iterates its own three benchmarks and the design
#: ablations their five, so they are covered by test_full_matrix_runs
#: only through their request lists, not executed here.
FAST_KEYS = ("fig4", "fig8", "fig9", "fig10", "fig12", "fig14", "fig15",
             "headline", "ablation")


class TestRequestCoverage:
    @pytest.mark.parametrize("key", FAST_KEYS)
    def test_prefetch_covers_experiment(self, key, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        engine.prefetch(ctx, requests_for([key], ctx))
        computed_after_prefetch = engine.stats.computed
        ALL_EXPERIMENTS[key](ctx)
        assert engine.stats.computed == computed_after_prefetch, (
            f"{key} needed runs the matrix did not prefetch"
        )

    def test_fig13_coverage(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        engine.prefetch(ctx, requests_for(["fig13"], ctx))
        computed_after_prefetch = engine.stats.computed
        ALL_EXPERIMENTS["fig13"](ctx)
        assert engine.stats.computed == computed_after_prefetch

    def test_static_experiments_request_nothing(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        for key in ("table1", "table2", "table3", "table4", "fig2", "fig7"):
            assert requests_for([key], ctx) == []

    def test_unknown_keys_request_nothing(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        assert requests_for(["not_an_experiment"], ctx) == []

    def test_requests_deduplicated(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        requests = requests_for(["fig8", "fig9", "fig10", "headline"], ctx)
        markers = [(r.benchmark, r.variant, r.params) for r in requests]
        assert len(markers) == len(set(markers))
        # Four experiments, identical needs: turbo + ppk + mpc_pair each.
        assert len(requests) == 3 * len(ctx.benchmark_names)

    def test_turbo_requests_ordered_first(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        requests = requests_for(list(ALL_EXPERIMENTS), ctx)
        variants = [r.variant for r in requests]
        first_non_turbo = next(
            i for i, v in enumerate(variants) if v != "turbo"
        )
        assert all(v != "turbo" for v in variants[first_non_turbo:])

    def test_run_all_prefetches_through_engine(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        tables = run_all(ctx, only=["fig8"], echo=False)
        assert len(tables) == 1
        assert engine.stats.requests > 0

    def test_run_all_rejects_unknown_key(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        with pytest.raises(KeyError):
            run_all(ctx, only=["figure_of_doom"], echo=False)
