"""The parallel, cached experiment engine.

:class:`ExperimentEngine` is the execution layer between the experiment
modules and the simulator.  It does two things:

* **Content-addressed caching.**  Every policy run is keyed by a
  SHA-256 fingerprint of everything that determines it — the app's
  kernel specs, the DVFS tables, the simulator/APU calibration, the
  variant and its parameters, the predictor, and the engine's code
  version — and persisted as JSON under ``<cache_dir>/engine/``.  A key
  hit returns a run that is bit-identical to recomputing it.
* **Parallel fan-out.**  :meth:`prefetch` partitions a request matrix
  into cache hits and misses and computes the misses on a
  ``ProcessPoolExecutor`` (``jobs=1`` keeps today's serial in-process
  behaviour).  Workers receive the context's simulator and trained
  predictor once (at pool start) and execute requests through the same
  :mod:`~repro.engine.variants` registry as the serial path.

Failure semantics: a worker exception is re-raised in the parent as
:class:`EngineWorkerError` carrying the worker's original formatted
traceback; corrupt or truncated cache entries are silent misses.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.fingerprint import CODE_VERSION, Described, describe, fingerprint
from repro.engine.serialize import run_result_from_dict, run_result_to_dict
from repro.engine.variants import VARIANTS, RunKey, RunRequest, produced_keys
from repro.obs import Instrumentation, NOOP, or_noop, publish_cache_stats
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sim.trace import RunResult

__all__ = [
    "DEFAULT_CACHE_DIR",
    "EngineError",
    "EngineWorkerError",
    "EngineStats",
    "ExperimentEngine",
]

#: Default on-disk cache root, shared with the Random Forest cache.
DEFAULT_CACHE_DIR = ".cache"


class EngineError(RuntimeError):
    """Base class for engine failures."""


class EngineWorkerError(EngineError):
    """A worker process failed; carries the original remote traceback.

    Attributes:
        request: The request that failed.
        remote_traceback: The worker's formatted traceback text.
    """

    def __init__(self, request: RunRequest, remote_traceback: str) -> None:
        self.request = request
        self.remote_traceback = remote_traceback
        super().__init__(
            f"engine worker failed computing {request.describe()}\n"
            f"--- original worker traceback ---\n{remote_traceback}"
        )


@dataclass
class EngineStats:
    """Aggregate statistics of one engine's lifetime.

    Attributes:
        jobs: Configured worker count.
        requests: Requests examined by prefetch/fetch.
        computed: Requests actually simulated (cache misses).
        parallel_computed: Subset of ``computed`` done by pool workers.
        compute_s: Wall-clock time spent computing misses.
        cache: Hit/miss counters of the result cache.
    """

    jobs: int = 1
    requests: int = 0
    computed: int = 0
    parallel_computed: int = 0
    compute_s: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)

    def format(self) -> str:
        """Multi-line human-readable summary for reports."""
        return (
            f"engine: {self.jobs} job(s); {self.requests} requests, "
            f"{self.computed} computed ({self.parallel_computed} in "
            f"workers) in {self.compute_s:.2f}s\n{self.cache.format()}"
        )


class ExperimentEngine:
    """Parallel execution layer with a content-hash result cache.

    Args:
        jobs: Worker processes for :meth:`prefetch`; ``1`` computes
            serially in-process (exact legacy behaviour).
        cache_dir: Root directory of the on-disk result cache.
        use_cache: When ``False`` (the ``--no-cache`` flag) the engine
            neither reads nor writes cache entries.
        obs: Optional instrumentation.  With a live tracer, every
            computed request's launch spans are delivered to it — on the
            parallel path the workers capture spans per request and the
            parent re-emits them in request order, so a trace is
            byte-identical across job counts, whatever the request
            order.  A health monitor reads the same spans in the same
            order.  Worker registry snapshots are merged back with
            provenance.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir=cache_dir, enabled=use_cache)
        self.stats = EngineStats(jobs=jobs, cache=self.cache.stats)
        self.obs = or_noop(obs)

    # ----- fingerprinting -------------------------------------------------------

    def _base_payload(self, ctx: Any, request: RunRequest,
                      described: Optional[Dict[Any, Described]] = None) -> Any:
        """Described key material shared by a request's produced runs.

        ``described`` holds the parts a payload shares with other
        requests of the context (the simulator, the search space, the
        DVFS tables, the predictor and each benchmark's app), each
        described once; :meth:`prefetch` passes one per call.  Without
        it every part is described afresh.
        """
        from repro.hardware import dvfs

        described = {} if described is None else described

        def part(name: Any, build: Any) -> Described:
            if name not in described:
                described[name] = Described(describe(build()))
            return described[name]

        spec = VARIANTS[request.variant]
        payload: Dict[str, Any] = {
            "code": CODE_VERSION,
            "benchmark": request.benchmark,
            "app": part(("app", request.benchmark),
                        lambda: ctx.app(request.benchmark)),
            "sim": part("sim", lambda: ctx.sim),
            "space": part("space", lambda: {
                "cpu": ctx.space.cpu_axis,
                "nb": ctx.space.nb_axis,
                "gpu": ctx.space.gpu_axis,
                "cu": ctx.space.cu_axis,
            }),
            "dvfs": part("dvfs", lambda: {
                "cpu": dict(dvfs.CPU_PSTATES),
                "nb": dict(dvfs.NB_PSTATES),
                "gpu": dict(dvfs.GPU_DPM_STATES),
                "cu": tuple(dvfs.CU_COUNTS),
            }),
            "variant": request.variant,
            "params": dict(request.params),
        }
        if "predictor" in spec.needs(request):
            payload["predictor"] = part("predictor", ctx.predictor_fingerprint)
        return describe(payload)

    def _run_base(self, ctx: Any, request: RunRequest,
                  described: Optional[Dict[Any, Described]] = None) -> Described:
        """The ``base`` entry of a request's run keys: its base payload,
        described once and wrapped so that no run key describes it
        again."""
        return Described(self._base_payload(ctx, request, described))

    def key_for(self, ctx: Any, request: RunRequest, run_key: RunKey,
                base: Optional[Described] = None) -> str:
        """Cache key of one produced run of a request.

        ``base`` is the request's :meth:`_run_base`, passed by callers
        that key several of its runs.
        """
        base = base if base is not None else self._run_base(ctx, request)
        return fingerprint({"base": base, "run": list(run_key)})

    # ----- cache access ---------------------------------------------------------

    def load_request(
        self, ctx: Any, request: RunRequest,
        described: Optional[Dict[Any, Described]] = None,
    ) -> Optional[Dict[RunKey, RunResult]]:
        """Load every run a request produces, or ``None`` on any miss.

        ``described`` is a prefetch's shared key parts (see
        :meth:`_base_payload`).
        """
        keys = produced_keys(request)
        self.stats.requests += 1
        base = self._run_base(ctx, request, described)
        loaded: Dict[RunKey, RunResult] = {}
        for run_key in keys:
            payload = self.cache.load(self.key_for(ctx, request, run_key, base))
            if payload is None:
                return None
            try:
                loaded[run_key] = run_result_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                self.cache.stats.corrupt += 1
                return None
        return loaded

    def store_request(self, ctx: Any, request: RunRequest,
                      runs: Dict[RunKey, RunResult],
                      described: Optional[Dict[Any, Described]] = None) -> None:
        """Persist every run a request produced."""
        base = self._run_base(ctx, request, described)
        for run_key, run in runs.items():
            summary = {
                "benchmark": request.benchmark,
                "variant": request.variant,
                "run": [str(part) for part in run_key],
                "params": [[k, repr(v)] for k, v in request.params],
            }
            self.cache.store(
                self.key_for(ctx, request, run_key, base),
                run_result_to_dict(run),
                summary=summary,
            )

    # ----- prefetch -------------------------------------------------------------

    def prefetch(self, ctx: Any,
                 requests: Sequence[RunRequest]) -> EngineStats:
        """Materialize a request matrix into the context's run store.

        Cache hits are loaded; misses are computed — in parallel when
        ``jobs > 1`` — stored, and installed into ``ctx._runs`` so the
        experiment modules that follow only ever see in-memory hits.

        Returns:
            The engine's cumulative stats (also kept on ``self.stats``).
        """
        # Key parts every request shares, described once per call: the
        # context cannot change them while it computes.
        described: Dict[Any, Described] = {}
        todo: List[RunRequest] = []
        seen: set = set()
        for request in requests:
            keys = produced_keys(request)
            if keys in seen:
                continue
            seen.add(keys)
            if all(key in ctx._runs for key in keys):
                continue
            loaded = self.load_request(ctx, request, described)
            if loaded is not None:
                ctx._runs.update(loaded)
                continue
            todo.append(request)

        if not todo:
            return self.stats

        obs = self._obs_for(ctx)
        start = time.perf_counter()
        if self.jobs > 1 and len(todo) > 1:
            self._compute_parallel(ctx, todo, obs, described)
        else:
            produced: set = set()
            for request in todo:
                keys = produced_keys(request)
                # Skip what an earlier request of this call produced.  A
                # run an earlier request computed only as a dependency
                # (the Turbo baseline behind target_throughput) ran
                # uninstrumented, so it is computed again, as a worker
                # would.
                if all(key in produced for key in keys):
                    continue
                produced.update(keys)
                task_start = time.perf_counter()
                if obs.enabled:
                    computed, spans = _compute_request_with_capture(
                        ctx, request, obs.registry
                    )
                else:
                    computed = VARIANTS[request.variant].compute(
                        ctx, request, obs
                    )
                    spans = []
                ctx._runs.update(computed)
                self.store_request(ctx, request, computed, described)
                self.stats.computed += 1
                if obs.enabled:
                    self._record_task(
                        obs, "serial", time.perf_counter() - task_start
                    )
                    _reemit(obs, spans)
        self.stats.compute_s += time.perf_counter() - start
        if obs.enabled:
            publish_cache_stats(obs.registry, self.cache.stats, scope="engine")
        return self.stats

    def _obs_for(self, ctx: Any) -> Instrumentation:
        """The live instrumentation of a prefetch: the engine's own, or
        (when the engine was built without one) the context's."""
        if self.obs.enabled:
            return self.obs
        return or_noop(getattr(ctx, "obs", None))

    def _record_task(self, obs: Instrumentation, mode: str,
                     seconds: float) -> None:
        obs.registry.counter(
            "repro_engine_tasks_total", "Requests computed by the engine"
        ).inc(mode=mode)
        obs.registry.histogram(
            "repro_engine_task_seconds",
            "Wall-clock seconds spent computing one request",
        ).observe(seconds, mode=mode)

    def _compute_parallel(
        self, ctx: Any, todo: List[RunRequest], obs: Instrumentation = NOOP,
        described: Optional[Dict[Any, Described]] = None,
    ) -> None:
        """Fan the misses out over a process pool and collect results."""
        # Materialize the predictor up front: workers must never each
        # pay for Random Forest training, and the trained object ships
        # once per worker via the pool initializer.
        if any("predictor" in VARIANTS[r.variant].needs(r) for r in todo):
            ctx.predictor
        max_workers = min(self.jobs, len(todo), os.cpu_count() or self.jobs)
        spec_bytes = pickle.dumps(
            {
                "simulator": ctx.sim,
                "predictor": ctx._predictor,
                "cache_dir": ctx._cache_dir,
                "alpha": ctx.alpha,
                "obs": obs.enabled,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_init,
            initargs=(spec_bytes,),
        ) as pool:
            # Results are collected in submission (request) order, not
            # completion order, so worker span re-emission — and the
            # first-failure raise — is deterministic across job counts.
            futures = [
                (request, pool.submit(_worker_compute, request))
                for request in todo
            ]
            try:
                for request, future in futures:
                    status, payload, obs_payload = future.result()
                    if status != "ok":
                        raise EngineWorkerError(request, payload)
                    runs = {
                        tuple(key): run_result_from_dict(run_dict)
                        for key, run_dict in payload
                    }
                    ctx._runs.update(runs)
                    self.store_request(ctx, request, runs, described)
                    self.stats.computed += 1
                    self.stats.parallel_computed += 1
                    if obs_payload is not None and obs.enabled:
                        obs.registry.merge(obs_payload["registry"])
                        self._record_task(obs, "worker", obs_payload["task_s"])
                        _reemit(obs, obs_payload["spans"])
            finally:
                for _, future in futures:
                    future.cancel()


# ----- request computation with span capture --------------------------------


def _reemit(obs: Instrumentation, spans: List[Dict[str, Any]]) -> None:
    """Deliver one request's captured spans to the live instrumentation.

    The capture has no health monitor, so the parent's monitor reads
    each launch span here, right after the tracer receives it — the
    order a live session feeds it — and a health-on engine run reports
    what ``repro obs health`` computes from the written trace.
    """
    for span in spans:
        obs.tracer.emit(span)
        obs.health.observe_span(span)


def _compute_request_with_capture(
    ctx: Any, request: RunRequest, registry: Any
) -> Tuple[Dict[RunKey, RunResult], List[Dict[str, Any]]]:
    """Compute one request into ``registry``, capturing its spans.

    Only the runs the request produces are instrumented: a dependency
    computed on the way (the Turbo baseline behind
    ``target_throughput``) runs uninstrumented, so neither the trace
    nor the metrics depend on which process computed what.
    """
    capture = Instrumentation(registry, Tracer(keep=True))
    runs = VARIANTS[request.variant].compute(ctx, request, capture)
    return runs, capture.tracer.spans


# ----- worker side ----------------------------------------------------------

_WORKER_CTX: Any = None
_WORKER_OBS = False


def _worker_init(spec_bytes: bytes) -> None:
    """Build this worker's private ExperimentContext from the spec."""
    global _WORKER_CTX, _WORKER_OBS
    from repro.experiments.common import ExperimentContext

    spec = pickle.loads(spec_bytes)
    _WORKER_CTX = ExperimentContext(
        simulator=spec["simulator"],
        predictor=spec["predictor"],
        cache_dir=spec["cache_dir"],
        alpha=spec["alpha"],
    )
    _WORKER_OBS = bool(spec.get("obs", False))


def _worker_compute(request: RunRequest) -> Tuple[str, Any, Any]:
    """Execute one request; never raises across the process boundary.

    Returns ``("ok", [(key, run_dict), ...], obs_payload)`` on success
    or ``("err", traceback_text, None)`` on failure, so the parent can
    re-raise with the worker's original traceback attached.  When the
    parent's instrumentation is live, ``obs_payload`` ships this
    request's registry snapshot, filtered span dicts, and compute time
    back for merging.
    """
    try:
        if _WORKER_CTX is None:
            raise RuntimeError("engine worker used before initialization")
        obs_payload: Any = None
        if _WORKER_OBS:
            registry = MetricsRegistry()
            start = time.perf_counter()
            runs, spans = _compute_request_with_capture(
                _WORKER_CTX, request, registry
            )
            obs_payload = {
                "registry": registry.snapshot(),
                "spans": spans,
                "task_s": time.perf_counter() - start,
            }
        else:
            runs = VARIANTS[request.variant].compute(_WORKER_CTX, request, NOOP)
        return (
            "ok",
            [
                (list(key), run_result_to_dict(run))
                for key, run in runs.items()
            ],
            obs_payload,
        )
    except BaseException:
        import traceback

        return ("err", traceback.format_exc(), None)


def canonical_requests(
    ctx: Any,
    benchmark_names: Optional[Iterable[str]] = None,
) -> List[RunRequest]:
    """The standard app x policy matrix for a set of benchmarks.

    Covers the seven canonical run variants of
    :class:`~repro.experiments.common.ExperimentContext` (Turbo, PPK,
    PPK-oracle, the MPC pairs, idealized MPC, and the theoretically
    optimal plan) — everything Figures 4 and 8-12, 14, 15 and the
    headline table consume.
    """
    names = list(
        benchmark_names if benchmark_names is not None else ctx.benchmark_names
    )
    requests: List[RunRequest] = []
    for name in names:
        requests.append(RunRequest(name, "turbo"))
        requests.append(RunRequest(name, "ppk"))
        requests.append(RunRequest(name, "ppk_oracle"))
        requests.append(RunRequest(name, "mpc_pair", (("alpha", ctx.alpha),)))
        requests.append(
            RunRequest(name, "mpc_pair_full", (("alpha", ctx.alpha),))
        )
        requests.append(RunRequest(name, "mpc_ideal"))
        requests.append(RunRequest(name, "to"))
    return requests
