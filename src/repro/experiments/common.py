"""Shared infrastructure for the per-figure experiment modules.

Most figures compare the same handful of policy runs over the same 15
benchmarks, so :class:`ExperimentContext` runs each (benchmark, policy)
pair once and caches the result.  The canonical run variants are:

* ``turbo``      — AMD Turbo Core (the normalization baseline).
* ``ppk``        — PPK with the Random Forest predictor, overheads charged.
* ``ppk_oracle`` — PPK with perfect prediction, no overheads (Figure 4).
* ``mpc_first``  — the MPC framework's first (profiling) invocation.
* ``mpc``        — MPC steady state: invocation after profiling, adaptive
  horizon, Random Forest predictions, overheads charged (Figures 8-10).
* ``mpc_full``   — MPC with full horizon, overheads charged (Section VI-E).
* ``mpc_ideal``  — MPC with perfect prediction, full horizon, no
  overheads (Figure 12).
* ``to``         — the Theoretically Optimal plan (Figures 4 and 12).

All variants execute through the streaming runtime layer: the compute
bodies in :mod:`repro.engine.variants` host each policy in a
:class:`~repro.runtime.session.SessionRuntime` built by
``Simulator.session`` (MPC pairs via
:func:`~repro.runtime.session.invocation_pair`), so cached experiment
results are byte-identical to what the streaming drivers produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.variants import RunKey, RunRequest, VARIANTS, produced_keys
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace
from repro.ml.predictors import (
    FOREST_RECIPE,
    OraclePredictor,
    PerfPowerPredictor,
    RandomForestPredictor,
    train_predictor,
)
from repro.obs import NOOP, Instrumentation, or_noop
from repro.sim.simulator import Simulator
from repro.sim.trace import RunResult
from repro.workloads.app import Application
from repro.workloads.generator import training_population
from repro.workloads.suites import BENCHMARK_NAMES, benchmark

__all__ = ["ExperimentTable", "ExperimentContext"]

#: Default on-disk cache for the trained Random Forest.
DEFAULT_CACHE_DIR = ".cache"

_DEFAULT_POPULATION_KEYS: Optional[List[str]] = None


def _default_population_keys() -> List[str]:
    """Kernel keys of the default training population (memoized)."""
    global _DEFAULT_POPULATION_KEYS
    if _DEFAULT_POPULATION_KEYS is None:
        _DEFAULT_POPULATION_KEYS = sorted(
            spec.key
            for spec in training_population(FOREST_RECIPE["population"])
        )
    return _DEFAULT_POPULATION_KEYS


@dataclass
class ExperimentTable:
    """A reproduced table/figure: headers plus printable rows.

    Attributes:
        experiment_id: The paper's identifier, e.g. ``"Figure 8"``.
        title: What the table shows.
        headers: Column names.
        rows: One list of cell values per row.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row width {len(cells)} != header width {len(self.headers)}"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[object]:
        """All values of one named column."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def row_for(self, key: object) -> List[object]:
        """The row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row keyed {key!r}")

    def format(self) -> str:
        """Render as an aligned text table."""
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.3f}"
            return str(cell)

        table = [self.headers] + [[fmt(c) for c in row] for row in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(self.headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for i, row in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


class ExperimentContext:
    """Caches policy runs shared by the experiment modules.

    Every run variant is described by an
    :class:`~repro.engine.variants.RunRequest` and resolved through
    :meth:`_run`: first against the in-memory store, then (when an
    engine is attached) against the engine's content-addressed disk
    cache, and only then computed — by this process, or by the engine's
    worker processes during a
    :meth:`~repro.engine.core.ExperimentEngine.prefetch`.

    Args:
        benchmark_names: Benchmarks to evaluate (defaults to all 15).
        simulator: The execution simulator (APU + overhead model).
        predictor: The Random Forest predictor; trained (or loaded from
            ``cache_dir``) on first use when not supplied.
        cache_dir: On-disk cache directory for the trained forest.
        alpha: Adaptive-horizon performance-penalty bound.
        engine: Optional :class:`~repro.engine.core.ExperimentEngine`
            providing the result cache and parallel prefetching.
        obs: Optional instrumentation threaded into every policy run
            computed through this context (defaults to the no-op).
            Kept on the context — never on the simulator — so the
            fingerprinted cache-key material is unchanged by tracing.
    """

    def __init__(
        self,
        benchmark_names: Optional[Sequence[str]] = None,
        simulator: Optional[Simulator] = None,
        predictor: Optional[RandomForestPredictor] = None,
        cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
        alpha: float = 0.05,
        engine: Optional[Any] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.benchmark_names: List[str] = list(
            benchmark_names if benchmark_names is not None else BENCHMARK_NAMES
        )
        self.sim = simulator if simulator is not None else Simulator()
        self.space = ConfigSpace()
        self.alpha = alpha
        self.engine = engine
        self.obs = or_noop(obs)
        self._cache_dir = cache_dir
        self._predictor = predictor
        self._default_predictor = predictor is None
        self._apps: Dict[str, Application] = {}
        self._runs: Dict[RunKey, RunResult] = {}

    # ----- building blocks -----------------------------------------------------

    @property
    def apu(self) -> APUModel:
        """The ground-truth hardware model."""
        return self.sim.apu

    @property
    def predictor(self) -> PerfPowerPredictor:
        """The (lazily trained) Random Forest predictor."""
        if self._predictor is None:
            self._predictor = train_predictor(
                apu=self.apu, cache_dir=self._cache_dir
            )
        return self._predictor

    @predictor.setter
    def predictor(self, value: PerfPowerPredictor) -> None:
        self._predictor = value
        self._default_predictor = value is None

    def predictor_fingerprint(self) -> Any:
        """Cache-key material identifying the context's predictor.

        For the default (lazily trained) Random Forest this is derived
        from the training parameters and the APU being characterized —
        *without* forcing the expensive training, so a warm cache can
        satisfy predictor-backed runs with no model in memory.  An
        explicitly supplied predictor is described structurally.
        """
        if self._default_predictor:
            return [
                "default-rf",
                dict(FOREST_RECIPE),
                _default_population_keys(),
                len(self.space),
                self.apu,
            ]
        return ["predictor", self.predictor]

    def app(self, name: str) -> Application:
        """The benchmark application, built once."""
        if name not in self._apps:
            self._apps[name] = benchmark(name)
        return self._apps[name]

    def oracle(self, name: str) -> OraclePredictor:
        """A perfect predictor restricted to one benchmark's kernels."""
        return OraclePredictor(self.apu, self.app(name).unique_kernels)

    def target_throughput(self, name: str) -> float:
        """The baseline (Turbo Core) kernel throughput of a benchmark.

        A missing baseline is computed uninstrumented: it is an input
        to the run being computed, not a requested run.
        """
        turbo = self._run(RunRequest(name, "turbo"), NOOP)[(name, "turbo")]
        return turbo.instructions / turbo.kernel_time_s

    # ----- cached runs -----------------------------------------------------------

    def _run(
        self, request: RunRequest, obs: Optional[Instrumentation] = None
    ) -> Dict[RunKey, RunResult]:
        """Resolve a request: memory, then engine cache, then compute
        under ``obs`` (default: the context's instrumentation)."""
        keys = produced_keys(request)
        if all(key in self._runs for key in keys):
            return {key: self._runs[key] for key in keys}
        if self.engine is not None:
            loaded = self.engine.load_request(self, request)
            if loaded is not None:
                self._runs.update(loaded)
                return loaded
        computed = VARIANTS[request.variant].compute(
            self, request, self.obs if obs is None else obs
        )
        self._runs.update(computed)
        if self.engine is not None:
            self.engine.store_request(self, request, computed)
        return computed

    def _run_one(self, request: RunRequest, key: RunKey) -> RunResult:
        return self._run(request)[key]

    def turbo(self, name: str) -> RunResult:
        """The Turbo Core baseline run."""
        return self._run_one(RunRequest(name, "turbo"), (name, "turbo"))

    def ppk(self, name: str) -> RunResult:
        """PPK with Random Forest predictions, overheads charged."""
        return self._run_one(RunRequest(name, "ppk"), (name, "ppk"))

    def ppk_oracle(self, name: str) -> RunResult:
        """PPK with perfect per-kernel knowledge, no overheads (Fig. 4)."""
        return self._run_one(
            RunRequest(name, "ppk_oracle"), (name, "ppk_oracle")
        )

    def _mpc_request(self, name: str, *, adaptive: bool) -> RunRequest:
        variant = "mpc_pair" if adaptive else "mpc_pair_full"
        return RunRequest(name, variant, (("alpha", self.alpha),))

    def mpc(self, name: str) -> RunResult:
        """MPC steady state: adaptive horizon, RF, overheads charged."""
        return self._run_one(
            self._mpc_request(name, adaptive=True), (name, "mpc")
        )

    def mpc_first(self, name: str) -> RunResult:
        """The profiling (first) invocation of the MPC framework."""
        return self._run_one(
            self._mpc_request(name, adaptive=True), (name, "mpc_first")
        )

    def mpc_full_horizon(self, name: str) -> RunResult:
        """MPC steady state with the full (non-adaptive) horizon."""
        return self._run_one(
            self._mpc_request(name, adaptive=False), (name, "mpc_full")
        )

    def mpc_ideal(self, name: str) -> RunResult:
        """MPC with perfect prediction, full horizon, no overheads."""
        return self._run_one(RunRequest(name, "mpc_ideal"), (name, "mpc_ideal"))

    def mpc_variant(self, name: str, tag: str, *,
                    simulator: Optional[Simulator] = None,
                    **manager_kwargs) -> RunResult:
        """MPC steady state with arbitrary manager options (ablations).

        Args:
            name: Benchmark name.
            tag: Cache key suffix distinguishing the variant.
            simulator: Optional alternative simulator (e.g. one with
                CPU-phase overhead hiding); defaults to the shared one.
            **manager_kwargs: Extra :class:`MPCPowerManager` arguments
                (``use_search_order``, ``window_reserve``, ``alpha``...).

        Returns:
            The steady-state run of the variant.
        """
        request = RunRequest(
            name,
            "mpc_variant",
            (
                ("kwargs", tuple(sorted(manager_kwargs.items()))),
                ("simulator", simulator),
                ("tag", tag),
            ),
        )
        return self._run_one(request, (name, "mpc_variant", tag))

    def mpc_with_predictor(self, name: str, predictor: PerfPowerPredictor,
                           tag: str) -> RunResult:
        """MPC steady state under an arbitrary predictor (Figure 13).

        Full horizon and no overhead charging, matching the paper's
        setup for the prediction-accuracy study.
        """
        # The context's own predictor is referenced symbolically so the
        # cache key stays computable without training, and so worker
        # processes resolve it against their local copy.
        shipped = None if predictor is self._predictor else predictor
        request = RunRequest(
            name, "mpc_pred", (("predictor", shipped), ("tag", tag))
        )
        return self._run_one(request, (name, "mpc_pred", tag))

    def mpc_error_model(self, name: str, time_error: float,
                        power_error: float) -> RunResult:
        """MPC under a half-normal synthetic-error oracle (Figure 13)."""
        from repro.engine.variants import error_model_tag

        request = RunRequest(
            name,
            "mpc_error",
            (("power_error", power_error), ("time_error", time_error)),
        )
        return self._run_one(
            request, (name, "mpc_pred", error_model_tag(time_error, power_error))
        )

    def theoretically_optimal(self, name: str) -> RunResult:
        """The Theoretically Optimal plan, replayed with no overheads."""
        return self._run_one(RunRequest(name, "to"), (name, "to"))
