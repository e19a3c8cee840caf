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
  into cache hits and misses and computes each miss through one
  function, in-process at ``jobs=1`` and otherwise on
  :class:`~repro.workers.Worker` processes, the transport the fleet's
  shards use.  Each worker receives the context's simulator and
  trained predictor once, when it starts; one loop installs, stores
  and merges every result in request order, whichever process
  computed it.

Failure semantics: a request whose worker raised, died or missed the
transport's reply deadline raises :class:`EngineWorkerError` in the
parent, carrying the worker's original formatted traceback or the
exit code or deadline; corrupt or truncated cache entries are silent
misses.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.fingerprint import CODE_VERSION, Described, describe, fingerprint
from repro.engine.serialize import run_result_from_dict, run_result_to_dict
from repro.engine.variants import VARIANTS, RunKey, RunRequest, produced_keys
from repro.obs import Instrumentation, NOOP, or_noop, publish_cache_stats
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sim.trace import RunResult
from repro.workers import Worker, WorkerError, wait

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
    """A worker process failed, died or hung; carries the original
    remote traceback or the transport's reason.

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
        parallel_computed: Subset of ``computed`` done by worker
            processes.
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
            in-process, one request after another.
        cache_dir: Root directory of the on-disk result cache.
        use_cache: When ``False`` (the ``--no-cache`` flag) the engine
            neither reads nor writes cache entries.
        obs: Optional instrumentation.  When live, every computed
            request runs under a capture of its own; the parent merges
            its registry snapshot (with provenance) and re-emits its
            spans in request order, so the trace and the metrics are
            byte-identical across job counts, whatever the request
            order.  A health monitor reads the same spans in the same
            order.
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

        Cache hits are loaded; misses are computed by
        :func:`_compute_request` — on worker processes when
        ``jobs > 1`` and more than one request misses, in-process
        otherwise — then installed into ``ctx._runs`` and stored, in
        request order, so the experiment modules that follow only ever
        see in-memory hits.  A worker failure raises
        :class:`EngineWorkerError`; an in-process failure raises as it
        is.  Every worker is reaped before this returns or raises.

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
            results = self._worker_results(ctx, todo, obs.enabled)
            mode = "worker"
        else:
            # Lazy: each result is installed before the next request
            # computes, so a later request finds its dependencies.
            results = (
                (request, *_compute_request(ctx, request, obs.enabled))
                for request in todo
            )
            mode = "serial"
        # Closing the results reaps every worker, also when a result
        # raises while it is installed.
        with contextlib.closing(results):
            for request, runs, captured in results:
                ctx._runs.update(runs)
                self.store_request(ctx, request, runs, described)
                self.stats.computed += 1
                if mode == "worker":
                    self.stats.parallel_computed += 1
                if captured is not None:
                    obs.registry.merge(captured["registry"])
                    self._record_task(obs, mode, captured["task_s"])
                    # The capture has no health monitor, so the live one
                    # reads each launch span right after the tracer
                    # receives it, the order a live session feeds it: a
                    # health-on engine run reports what ``repro obs
                    # health`` computes from the written trace.
                    for span in captured["spans"]:
                        obs.tracer.emit(span)
                        obs.health.observe_span(span)
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

    def _worker_results(
        self, ctx: Any, todo: List[RunRequest], capture: bool
    ) -> Iterator[Tuple[RunRequest, Dict[RunKey, RunResult], Any]]:
        """Compute the misses on worker processes; yield
        ``(request, runs, captured)`` in request order.

        Each worker hosts one context rebuilt from the parent's and is
        handed the next request as soon as it replies; a worker whose
        request failed is handed none.  A request whose worker raised,
        died or missed the reply deadline raises
        :class:`EngineWorkerError` once every request before it is
        yielded, so the first failure in request order is the one
        raised.
        """
        # Materialize the predictor up front: workers must never each
        # pay for Random Forest training, and the trained object ships
        # once per worker in its context spec.
        if any("predictor" in VARIANTS[r.variant].needs(r) for r in todo):
            ctx.predictor
        spec = (type(ctx), ctx.sim, ctx._predictor, ctx._cache_dir, ctx.alpha,
                capture)
        count = min(self.jobs, len(todo), os.cpu_count() or self.jobs)
        pending = iter(range(len(todo)))
        busy: Dict[Worker, int] = {}
        outcomes: Dict[int, Any] = {}  # request index -> reply or WorkerError

        def hand(worker: Worker) -> None:
            """Post the next request, if any, to ``worker``."""
            index = next(pending, None)
            if index is not None:
                worker.post("compute", todo[index])
                busy[worker] = index

        with contextlib.ExitStack() as stack:
            for i in range(count):
                worker = Worker(f"engine-{i}", _EngineHost, *spec)
                stack.callback(worker.close)
                hand(worker)
            for index, request in enumerate(todo):
                while index not in outcomes:
                    # ``index`` is the oldest request in flight.
                    waiting = sorted(busy, key=busy.__getitem__)
                    try:
                        ready = wait(waiting)
                    except WorkerError as exc:  # it missed the reply deadline
                        outcomes[index] = exc
                        break
                    for worker in ready:
                        slot = busy.pop(worker)
                        try:
                            outcomes[slot] = worker.collect()[0]
                        except WorkerError as exc:
                            outcomes[slot] = exc
                        else:
                            hand(worker)
                outcome = outcomes.pop(index)
                if isinstance(outcome, WorkerError):
                    raise EngineWorkerError(
                        request, outcome.remote_traceback
                    ) from outcome
                payload, captured = outcome
                runs = {
                    key: run_result_from_dict(run) for key, run in payload.items()
                }
                yield request, runs, captured


# ----- request computation with span capture --------------------------------


def _compute_request(
    ctx: Any, request: RunRequest, capture: bool
) -> Tuple[Dict[RunKey, RunResult], Optional[Dict[str, Any]]]:
    """Compute one request; the engine's only way to compute a miss.

    Uncaptured, the request runs uninstrumented and ``captured`` is
    ``None``.  Captured, it runs under an instrumentation of its own,
    and ``captured`` holds its registry drain, its spans and its
    compute seconds, which the parent merges, re-emits and records the
    same way whichever process computed it.  Only the runs the request
    produces are instrumented: a dependency computed on the way (the
    Turbo baseline behind ``target_throughput``) runs uninstrumented.
    """
    compute = VARIANTS[request.variant].compute
    if not capture:
        return compute(ctx, request, NOOP), None
    start = time.perf_counter()
    obs = Instrumentation(MetricsRegistry(), Tracer(keep=True))
    runs = compute(ctx, request, obs)
    return runs, {
        "registry": obs.registry.drain(),
        "spans": obs.tracer.spans,
        "task_s": time.perf_counter() - start,
    }


class _EngineHost:
    """What an engine worker hosts: one context rebuilt from the parent's.

    The parent passes its context's class (pickled by reference), so
    the engine itself never imports the experiments package.
    """

    def __init__(self, context: Any, simulator: Any, predictor: Any,
                 cache_dir: Optional[str], alpha: float, capture: bool) -> None:
        self.ctx = context(simulator=simulator, predictor=predictor,
                           cache_dir=cache_dir, alpha=alpha)
        self.capture = capture

    def compute(self, request: RunRequest) -> Tuple[Dict[RunKey, Any], Any]:
        """One request's runs as JSON-able dicts (the cache
        serialization), and its capture."""
        runs, captured = _compute_request(self.ctx, request, self.capture)
        return {key: run_result_to_dict(run) for key, run in runs.items()}, captured


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
