"""The registry of policy-run variants the engine can execute.

A :class:`RunRequest` names one unit of cacheable, parallelizable work:
``(benchmark, variant, params)``.  Each variant registered in
:data:`VARIANTS` knows

* which in-memory run keys it **produces** (an MPC invocation pair
  yields both the profiling and the steady-state run),
* how to **compute** those runs against an
  :class:`~repro.experiments.common.ExperimentContext`, and
* which context-level inputs its cache key **needs** (e.g. the trained
  predictor's fingerprint) beyond the app/simulator/params that every
  key includes.

``ExperimentContext`` methods (and through them ``repro run`` and
``repro analyze``) and the engine, in-process or on its worker pool,
execute requests through this registry, which is what makes
``--jobs 4`` byte-identical to ``--jobs 1``: there is exactly one
implementation of every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.core.manager import MPCPowerManager
from repro.core.oracle import solve_theoretically_optimal
from repro.core.policies import PlannedPolicy, PPKPolicy
from repro.ml.errors import SyntheticErrorPredictor
from repro.obs import Instrumentation
from repro.runtime.session import invocation_pair
from repro.sim.trace import RunResult
from repro.sim.turbocore import TurboCorePolicy

__all__ = ["RunRequest", "VariantSpec", "VARIANTS", "produced_keys"]

#: An in-memory run key, exactly as stored in ``ExperimentContext._runs``.
RunKey = Tuple[Any, ...]


@dataclass(frozen=True)
class RunRequest:
    """One unit of engine work: a policy-run variant on one benchmark.

    Attributes:
        benchmark: Benchmark name (any Table-IV name).
        variant: Registry key in :data:`VARIANTS`.
        params: Canonical ``(name, value)`` pairs parameterizing the
            variant.  Values must be picklable (they travel to worker
            processes) and fingerprintable.
    """

    benchmark: str
    variant: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        """Value of one named parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        """Short human-readable form for logs and error messages."""
        params = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.benchmark}/{self.variant}({params})"


@dataclass(frozen=True)
class VariantSpec:
    """How one variant is keyed, computed, and fingerprinted.

    Attributes:
        produces: Maps a request to the run keys it computes.
        compute: Executes the request against a context under the
            given instrumentation, returning one :class:`RunResult` per
            produced key.
        needs: Names of context-level fingerprint dependencies; the
            single dynamic dependency is ``"predictor"``.
    """

    produces: Callable[[RunRequest], Tuple[RunKey, ...]]
    compute: Callable[[Any, RunRequest, Instrumentation], Dict[RunKey, RunResult]]
    needs: Callable[[RunRequest], Tuple[str, ...]]


def _static(*suffixes: str) -> Callable[[RunRequest], Tuple[RunKey, ...]]:
    def produces(request: RunRequest) -> Tuple[RunKey, ...]:
        return tuple((request.benchmark, suffix) for suffix in suffixes)
    return produces


def _needs(*names: str) -> Callable[[RunRequest], Tuple[str, ...]]:
    return lambda request: names


# ----- compute implementations ----------------------------------------------
#
# These bodies are the single source of truth for how each canonical run
# is produced; ExperimentContext delegates here.  They intentionally use
# the context's shared building blocks (app/predictor/oracle/target) so
# that derived runs (e.g. the Turbo baseline behind target_throughput)
# flow through the cache as their own requests.  Only the runs a request
# produces are instrumented, with the ``obs`` they are handed.


def _compute_turbo(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    run = ctx.sim.run(
        ctx.app(name), TurboCorePolicy(tdp_w=ctx.apu.tdp_w), obs=obs
    )
    return {(name, "turbo"): run}


def _compute_ppk(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    policy = PPKPolicy(ctx.target_throughput(name), ctx.predictor, ctx.space)
    return {(name, "ppk"): ctx.sim.run(ctx.app(name), policy, obs=obs)}


def _compute_ppk_oracle(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    policy = PPKPolicy(ctx.target_throughput(name), ctx.oracle(name), ctx.space)
    run = ctx.sim.run(ctx.app(name), policy, charge_overhead=False, obs=obs)
    return {(name, "ppk_oracle"): run}


def _compute_mpc_pair(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    adaptive = request.variant == "mpc_pair"
    manager = MPCPowerManager(
        ctx.target_throughput(name),
        ctx.predictor,
        ctx.space,
        alpha=request.param("alpha", ctx.alpha),
        adaptive_horizon=adaptive,
        overhead_model=ctx.sim.overhead,
        obs=obs,
    )
    app = ctx.app(name)
    suffix = "" if adaptive else "_full"
    first, steady = invocation_pair(ctx.sim.session(manager, obs=obs), app)
    return {
        (name, "mpc_first" + suffix): first,
        (name, "mpc" + suffix): steady,
    }


def _compute_mpc_ideal(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    manager = MPCPowerManager(
        ctx.target_throughput(name),
        ctx.oracle(name),
        ctx.space,
        adaptive_horizon=False,
        overhead_model=ctx.sim.overhead,
        obs=obs,
    )
    app = ctx.app(name)
    _, run = invocation_pair(
        ctx.sim.session(manager, charge_overhead=False, obs=obs), app
    )
    return {(name, "mpc_ideal"): run}


def _compute_mpc_variant(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    tag = request.param("tag")
    sim = request.param("simulator") or ctx.sim
    manager_kwargs = dict(request.param("kwargs", ()))
    manager = MPCPowerManager(
        ctx.target_throughput(name),
        ctx.predictor,
        ctx.space,
        overhead_model=sim.overhead,
        obs=obs,
        **manager_kwargs,
    )
    app = ctx.app(name)
    _, run = invocation_pair(sim.session(manager, obs=obs), app)
    return {(name, "mpc_variant", tag): run}


def _run_with_predictor(
    ctx: Any, name: str, predictor: Any, obs: Instrumentation
) -> RunResult:
    """Full-horizon, overhead-free MPC steady state (Figure 13 setup)."""
    manager = MPCPowerManager(
        ctx.target_throughput(name),
        predictor,
        ctx.space,
        adaptive_horizon=False,
        overhead_model=ctx.sim.overhead,
        obs=obs,
    )
    app = ctx.app(name)
    _, steady = invocation_pair(
        ctx.sim.session(manager, charge_overhead=False, obs=obs), app
    )
    return steady


def _compute_mpc_pred(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    tag = request.param("tag")
    predictor = request.param("predictor")
    if predictor is None:
        predictor = ctx.predictor
    run = _run_with_predictor(ctx, name, predictor, obs)
    return {(name, "mpc_pred", tag): run}


def error_model_tag(time_error: float, power_error: float) -> str:
    """Cache tag of a synthetic-error variant (shared with fig13)."""
    return f"err_{time_error:g}_{power_error:g}"


def _compute_mpc_error(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    time_error = request.param("time_error")
    power_error = request.param("power_error")
    predictor = SyntheticErrorPredictor(
        ctx.oracle(name), time_error, power_error
    )
    run = _run_with_predictor(ctx, name, predictor, obs)
    return {(name, "mpc_pred", error_model_tag(time_error, power_error)): run}


def _compute_to(
    ctx: Any, request: RunRequest, obs: Instrumentation
) -> Dict[RunKey, RunResult]:
    name = request.benchmark
    plan = solve_theoretically_optimal(
        ctx.app(name), ctx.apu, ctx.target_throughput(name), ctx.space
    )
    policy = PlannedPolicy(plan.configs, name="TheoreticallyOptimal")
    run = ctx.sim.run(ctx.app(name), policy, charge_overhead=False, obs=obs)
    return {(name, "to"): run}


def _produces_mpc_variant(request: RunRequest) -> Tuple[RunKey, ...]:
    return ((request.benchmark, "mpc_variant", request.param("tag")),)


def _produces_mpc_pred(request: RunRequest) -> Tuple[RunKey, ...]:
    return ((request.benchmark, "mpc_pred", request.param("tag")),)


def _produces_mpc_error(request: RunRequest) -> Tuple[RunKey, ...]:
    tag = error_model_tag(
        request.param("time_error"), request.param("power_error")
    )
    return ((request.benchmark, "mpc_pred", tag),)


def _needs_mpc_pred(request: RunRequest) -> Tuple[str, ...]:
    # Only the context's own predictor is an out-of-request dependency;
    # an explicitly supplied predictor is fingerprinted from the params.
    return ("predictor",) if request.param("predictor") is None else ()


#: Every variant the engine can execute, keyed by request variant name.
VARIANTS: Dict[str, VariantSpec] = {
    "turbo": VariantSpec(_static("turbo"), _compute_turbo, _needs()),
    "ppk": VariantSpec(_static("ppk"), _compute_ppk, _needs("predictor")),
    "ppk_oracle": VariantSpec(
        _static("ppk_oracle"), _compute_ppk_oracle, _needs()
    ),
    "mpc_pair": VariantSpec(
        _static("mpc_first", "mpc"), _compute_mpc_pair, _needs("predictor")
    ),
    "mpc_pair_full": VariantSpec(
        _static("mpc_first_full", "mpc_full"),
        _compute_mpc_pair,
        _needs("predictor"),
    ),
    "mpc_ideal": VariantSpec(_static("mpc_ideal"), _compute_mpc_ideal, _needs()),
    "mpc_variant": VariantSpec(
        _produces_mpc_variant, _compute_mpc_variant, _needs("predictor")
    ),
    "mpc_pred": VariantSpec(
        _produces_mpc_pred, _compute_mpc_pred, _needs_mpc_pred
    ),
    "mpc_error": VariantSpec(
        _produces_mpc_error, _compute_mpc_error, _needs()
    ),
    "to": VariantSpec(_static("to"), _compute_to, _needs()),
}


def produced_keys(request: RunRequest) -> Tuple[RunKey, ...]:
    """The in-memory run keys a request computes."""
    try:
        spec = VARIANTS[request.variant]
    except KeyError:
        raise KeyError(
            f"unknown variant {request.variant!r}; known: {', '.join(VARIANTS)}"
        ) from None
    return spec.produces(request)
