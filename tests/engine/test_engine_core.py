"""End-to-end behaviour of the ExperimentEngine.

Covers the ISSUE acceptance bars directly:

* ``jobs=4`` produces results identical to ``jobs=1``,
* a warm-cache rerun is at least 5x faster than the cold run,
* a worker exception surfaces the original traceback in the parent,
* ``use_cache=False`` computes without touching the disk.
"""

import os
import time

import pytest

from repro.engine import (
    EngineWorkerError,
    ExperimentEngine,
    RunRequest,
    canonical_requests,
)
from repro.obs import HealthMonitor, make_instrumentation

from .conftest import NAMES, small_context

pytestmark = pytest.mark.engine


def run_dicts(ctx):
    return {key: run.__dict__ for key, run in ctx._runs.items()}


class TestSerialEngine:
    def test_prefetch_computes_and_stores(self, cache_dir, engine, ctx):
        stats = engine.prefetch(ctx, canonical_requests(ctx))
        assert stats.computed > 0
        assert stats.cache.stores > 0
        assert os.path.isdir(engine.cache.root)
        # Every canonical run key materialized in memory.
        for name in NAMES:
            for suffix in ("turbo", "ppk", "ppk_oracle", "mpc", "mpc_first",
                           "mpc_full", "mpc_first_full", "mpc_ideal", "to"):
                assert (name, suffix) in ctx._runs

    def test_context_methods_hit_prefetched_memory(self, engine, ctx):
        engine.prefetch(ctx, canonical_requests(ctx))
        computed = engine.stats.computed
        ctx.mpc("NBody")
        ctx.theoretically_optimal("kmeans")
        assert engine.stats.computed == computed  # nothing recomputed

    def test_warm_cache_loads_identical_results(self, cache_dir, engine, ctx):
        engine.prefetch(ctx, canonical_requests(ctx))
        cold = run_dicts(ctx)

        warm_engine = ExperimentEngine(jobs=1, cache_dir=str(cache_dir))
        warm_ctx = small_context(cache_dir, warm_engine)
        warm_engine.prefetch(warm_ctx, canonical_requests(warm_ctx))
        assert warm_engine.stats.computed == 0
        assert warm_engine.stats.cache.hits > 0
        assert run_dicts(warm_ctx) == cold

    def test_warm_rerun_is_5x_faster(self, cache_dir):
        cold_engine = ExperimentEngine(jobs=1, cache_dir=str(cache_dir))
        cold_ctx = small_context(cache_dir, cold_engine)
        start = time.perf_counter()
        cold_engine.prefetch(cold_ctx, canonical_requests(cold_ctx))
        cold_s = time.perf_counter() - start

        warm_engine = ExperimentEngine(jobs=1, cache_dir=str(cache_dir))
        warm_ctx = small_context(cache_dir, warm_engine)
        start = time.perf_counter()
        warm_engine.prefetch(warm_ctx, canonical_requests(warm_ctx))
        warm_s = time.perf_counter() - start

        assert warm_engine.stats.computed == 0
        assert warm_s * 5 <= cold_s, (
            f"warm rerun {warm_s:.3f}s not 5x faster than cold {cold_s:.3f}s"
        )

    def test_no_cache_engine_computes_without_disk(self, cache_dir):
        engine = ExperimentEngine(
            jobs=1, cache_dir=str(cache_dir), use_cache=False
        )
        ctx = small_context(cache_dir, engine)
        engine.prefetch(ctx, [RunRequest("NBody", "turbo")])
        assert ("NBody", "turbo") in ctx._runs
        assert not os.path.isdir(engine.cache.root) or not os.listdir(
            engine.cache.root
        )

    def test_jobs_must_be_positive(self, cache_dir):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0, cache_dir=str(cache_dir))

    def test_stats_format_is_readable(self, engine, ctx):
        engine.prefetch(ctx, [RunRequest("NBody", "turbo")])
        text = engine.stats.format()
        assert "engine:" in text
        assert "cache:" in text


class TestParallelEngine:
    def test_jobs4_identical_to_jobs1(self, cache_dir, tmp_path):
        serial_engine = ExperimentEngine(jobs=1, cache_dir=str(cache_dir))
        serial_ctx = small_context(cache_dir, serial_engine)
        serial_engine.prefetch(serial_ctx, canonical_requests(serial_ctx))

        par_dir = tmp_path / "par-cache"
        par_engine = ExperimentEngine(jobs=4, cache_dir=str(par_dir))
        par_ctx = small_context(par_dir, par_engine)
        par_engine.prefetch(par_ctx, canonical_requests(par_ctx))

        assert par_engine.stats.parallel_computed > 0
        assert run_dicts(par_ctx) == run_dicts(serial_ctx)

    def test_health_monitor_reads_every_computed_launch(self, tmp_path):
        # Requests compute under a capture with no monitor; the parent's
        # monitor reads the spans it re-emits, so its report is the same
        # at any job count and equals an offline pass over the trace.
        reports = []
        for jobs in (1, 2):
            obs = make_instrumentation(health=True)
            cache_dir = tmp_path / f"jobs{jobs}"
            engine = ExperimentEngine(jobs=jobs, cache_dir=str(cache_dir), obs=obs)
            ctx = small_context(cache_dir, engine)
            engine.prefetch(ctx, canonical_requests(ctx))
            assert obs.health.sessions
            offline = HealthMonitor()
            for span in obs.tracer.spans:
                offline.observe_span(span)
            assert offline.report() == obs.health.report()
            reports.append(obs.health.report())
        assert reports[0] == reports[1]

    def test_each_run_is_its_own_health_session(self, tmp_path):
        # Engine runs carry no session id; the monitor keys each one by
        # its (app, policy), so unrelated runs share no detector state.
        obs = make_instrumentation(health=True)
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path), obs=obs)
        ctx = small_context(tmp_path, engine)
        engine.prefetch(ctx, canonical_requests(ctx))
        launches = {}
        for span in obs.tracer.spans:
            if span["name"] == "launch":
                attrs = span["attributes"]
                assert attrs["session"] == ""
                run = f"{attrs['app']}/{attrs['policy']}"
                launches[run] = launches.get(run, 0) + 1
        assert len(launches) > 1
        assert {
            name: health.decisions for name, health in obs.health.sessions.items()
        } == launches

    def test_worker_exception_surfaces_original_traceback(self, cache_dir):
        engine = ExperimentEngine(jobs=2, cache_dir=str(cache_dir))
        ctx = small_context(cache_dir, engine)
        bad = RunRequest(
            "NBody",
            "mpc_variant",
            (
                ("kwargs", (("no_such_manager_option", True),)),
                ("simulator", None),
                ("tag", "boom"),
            ),
        )
        with pytest.raises(EngineWorkerError) as excinfo:
            engine.prefetch(ctx, [RunRequest("NBody", "turbo"), bad])
        message = str(excinfo.value)
        assert "no_such_manager_option" in message  # the original error
        assert "Traceback" in message  # the worker's formatted traceback
        assert excinfo.value.request == bad


class TestPrefetchDedup:
    def test_duplicate_requests_computed_once(self, engine, ctx):
        request = RunRequest("NBody", "turbo")
        engine.prefetch(ctx, [request, request, RunRequest("NBody", "turbo")])
        assert engine.stats.computed == 1

    def test_unknown_variant_raises(self, engine, ctx):
        with pytest.raises(KeyError):
            engine.prefetch(ctx, [RunRequest("NBody", "warp_drive")])
