"""Engine-level observability: worker merge, trace determinism.

The headline guarantee: a traced matrix run produces byte-identical
spans and the same counters and histograms whether it executes
in-process or on worker processes — submission-order emission,
per-request registries at every job count, and uninstrumented
dependency runs make ``--jobs 4`` equal ``--jobs 1``.
"""

import json

import pytest

from repro.engine import ExperimentEngine
from repro.engine.variants import RunRequest
from repro.experiments.common import ExperimentContext
from repro.ml.predictors import OraclePredictor
from repro.obs import make_instrumentation
from repro.workloads.suites import benchmark

pytestmark = pytest.mark.obs

NAMES = ("NBody", "kmeans")

REQUESTS = [
    RunRequest(name, variant)
    for name in NAMES
    for variant in ("turbo", "ppk_oracle", "mpc_ideal")
]


def traced_context(cache_dir, jobs):
    obs = make_instrumentation()
    engine = ExperimentEngine(
        jobs=jobs, cache_dir=str(cache_dir), use_cache=False, obs=obs
    )
    kernels = {
        spec.key: spec for name in NAMES
        for spec in benchmark(name).unique_kernels
    }
    ctx = ExperimentContext(
        benchmark_names=list(NAMES), cache_dir=str(cache_dir),
        engine=engine, obs=obs,
    )
    ctx.predictor = OraclePredictor(
        ctx.apu, [kernels[key] for key in sorted(kernels)]
    )
    return ctx, obs


def canonical(spans):
    return [json.dumps(span, sort_keys=True) for span in spans]


class TestTraceDeterminism:
    def test_serial_and_parallel_traces_identical(self, tmp_path):
        ctx1, obs1 = traced_context(tmp_path / "c1", jobs=1)
        ctx1.engine.prefetch(ctx1, REQUESTS)
        ctx4, obs4 = traced_context(tmp_path / "c4", jobs=4)
        ctx4.engine.prefetch(ctx4, REQUESTS)

        serial, parallel = obs1.tracer.spans, obs4.tracer.spans
        assert len(serial) > 0
        assert canonical(serial) == canonical(parallel)

    def test_serial_and_parallel_counters_identical(self, tmp_path):
        ctx1, obs1 = traced_context(tmp_path / "c1", jobs=1)
        ctx1.engine.prefetch(ctx1, REQUESTS)
        ctx4, obs4 = traced_context(tmp_path / "c4", jobs=4)
        ctx4.engine.prefetch(ctx4, REQUESTS)

        # Every request computes under a capture of its own, in-process
        # or on a worker, and dependencies (the Turbo baseline behind a
        # target throughput) run uninstrumented, so the parent merges
        # the same snapshots in the same order at every job count:
        # counters, histograms and their float sums match exactly.  Only
        # the engine's own task accounting differs.
        def measured(registry):
            counters, histograms, sums = {}, {}, {}
            for metric in registry.metrics():
                if metric.name.startswith("repro_engine_task"):
                    continue
                for key, value in metric.series().items():
                    if metric.kind == "counter":
                        counters[metric.name, key] = value
                    elif metric.kind == "histogram":
                        histograms[metric.name, key] = (
                            value["counts"], value["count"]
                        )
                        sums[metric.name, key] = value["sum"]
            return counters, histograms, sums

        counters1, histograms1, sums1 = measured(obs1.registry)
        counters4, histograms4, sums4 = measured(obs4.registry)
        assert counters1, "no counters recorded"
        assert histograms1, "no histograms recorded"
        assert counters1 == counters4
        assert histograms1 == histograms4
        assert sums1 == sums4


class TestWorkerMerge:
    def test_parallel_run_merges_worker_registries(self, tmp_path):
        ctx, obs = traced_context(tmp_path / "c", jobs=4)
        ctx.engine.prefetch(ctx, REQUESTS)
        registry = obs.registry
        # Worker metrics arrived in the parent: launches were counted
        # even though every simulation ran out-of-process.
        assert registry.counter("repro_runtime_launches_total").total() > 0
        assert registry.counter("repro_engine_tasks_total").value(mode="worker") > 0
        # One merged source per computed request plus the parent.
        assert registry.sources > 1

    def test_cache_stats_published_after_prefetch(self, tmp_path):
        ctx, obs = traced_context(tmp_path / "c", jobs=1)
        ctx.engine.prefetch(ctx, REQUESTS)
        gauge = obs.registry.gauge("repro_cache_misses")
        assert gauge.value(scope="engine") == len(REQUESTS)


class TestDisabledDefault:
    def test_engine_without_obs_produces_no_spans(self, tmp_path):
        engine = ExperimentEngine(
            jobs=1, cache_dir=str(tmp_path / "c"), use_cache=False
        )
        kernels = {
            spec.key: spec for name in NAMES
            for spec in benchmark(name).unique_kernels
        }
        ctx = ExperimentContext(
            benchmark_names=list(NAMES),
            cache_dir=str(tmp_path / "c"), engine=engine,
        )
        ctx.predictor = OraclePredictor(
            ctx.apu, [kernels[key] for key in sorted(kernels)]
        )
        engine.prefetch(ctx, [RunRequest("NBody", "turbo")])
        assert not ctx.obs.enabled
        assert not engine.obs.enabled
        assert ctx.obs.tracer.spans == []


class TestRequestOrder:
    """A requested run is traced whatever the request order: the serial
    path computes again, under capture, a run that an earlier request
    computed only as an uninstrumented dependency, as a worker does."""

    @staticmethod
    def counts(registry):
        """Every counter series and every histogram's bucket counts and
        count, except the engine's own task accounting."""
        out = {}
        for metric in registry.snapshot()["metrics"]:
            if metric["name"].startswith("repro_engine_task"):
                continue
            for key, value in metric["series"]:
                name = (metric["name"], json.dumps(key))
                if metric["kind"] == "counter":
                    out[name] = value
                elif metric["kind"] == "histogram":
                    out[name] = (value["counts"], value["count"])
        return out

    @pytest.mark.parametrize(
        "variants", [("ppk_oracle", "turbo"), ("turbo", "ppk_oracle")]
    )
    def test_serial_prefetch_traces_like_parallel(self, tmp_path, variants):
        requests = [RunRequest("NBody", variant) for variant in variants]
        ctx1, obs1 = traced_context(tmp_path / "c1", jobs=1)
        ctx1.engine.prefetch(ctx1, requests)
        ctx2, obs2 = traced_context(tmp_path / "c2", jobs=2)
        ctx2.engine.prefetch(ctx2, requests)

        serial, parallel = obs1.tracer.spans, obs2.tracer.spans
        policies = {span["attributes"]["policy"] for span in serial}
        assert len(policies) == 2, policies
        assert canonical(serial) == canonical(parallel)
        assert self.counts(obs1.registry)
        assert self.counts(obs1.registry) == self.counts(obs2.registry)
