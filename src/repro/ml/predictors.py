"""Performance/power predictors used by the runtime policies.

Three predictors implement the same interface
(:class:`PerfPowerPredictor`):

* :class:`RandomForestPredictor` — the paper's offline-trained Random
  Forest for kernel time and GPU power, plus a normalized V²f CPU-power
  model ("the CPU usually busy waits while the kernel is executing").
* :class:`OraclePredictor` — perfect prediction against the ground-truth
  APU model, used by the limit studies (Figure 4, Figure 12).
* :class:`~repro.ml.errors.SyntheticErrorPredictor` — an oracle
  perturbed by half-normal errors of configurable mean, used to study
  prediction-accuracy sensitivity (Figure 13).

Estimates are (time, GPU power, CPU power); energy follows.
"""

from __future__ import annotations

import abc
import hashlib
import os
import pickle
import sys
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace, HardwareConfig, default_space
from repro.hardware.dvfs import CPU_PSTATES
from repro.hardware.table import ConfigTable
from repro.ml.dataset import build_dataset
from repro.ml.forest import (
    RandomForestRegressor,
    mean_absolute_percentage_error,
    predict_forests,
    prime_forests,
)
from repro.workloads.counters import CounterSynthesizer, CounterVector
from repro.workloads.generator import training_population
from repro.workloads.kernel import KernelSpec

__all__ = [
    "KernelEstimate",
    "EstimateBatch",
    "CpuPowerModel",
    "PerfPowerPredictor",
    "RandomForestPredictor",
    "OraclePredictor",
    "FOREST_RECIPE",
    "train_predictor",
    "evaluate_predictor",
]


@dataclass(frozen=True)
class KernelEstimate:
    """Predicted behaviour of one kernel launch at one configuration.

    Attributes:
        time_s: Predicted kernel execution time.
        gpu_power_w: Predicted GPU-rail power (GPU + NB).
        cpu_power_w: Predicted CPU-plane power (busy-wait).
    """

    time_s: float
    gpu_power_w: float
    cpu_power_w: float

    @property
    def energy_j(self) -> float:
        """Predicted total chip energy of the launch."""
        return (self.gpu_power_w + self.cpu_power_w) * self.time_s

    @property
    def gpu_energy_j(self) -> float:
        """Predicted GPU-rail energy of the launch."""
        return self.gpu_power_w * self.time_s


class EstimateBatch:
    """Struct-of-arrays estimates for one kernel over many configurations.

    The columnar twin of a ``List[KernelEstimate]``: three float64
    columns plus the vectorized energy column, row ``i`` float-for-float
    equal to the scalar estimate of the same (counters, config) query.

    Attributes:
        times_s: Predicted kernel execution times.
        gpu_power_w: Predicted GPU-rail powers.
        cpu_power_w: Predicted CPU-plane powers.
        energy_j: Predicted total chip energies, ``(gpu + cpu) * time``.
    """

    __slots__ = ("times_s", "gpu_power_w", "cpu_power_w", "energy_j")

    def __init__(self, times_s, gpu_power_w, cpu_power_w) -> None:
        self.times_s = np.asarray(times_s, dtype=float)
        self.gpu_power_w = np.asarray(gpu_power_w, dtype=float)
        self.cpu_power_w = np.asarray(cpu_power_w, dtype=float)
        self.energy_j = (self.gpu_power_w + self.cpu_power_w) * self.times_s

    def __len__(self) -> int:
        return self.times_s.shape[0]

    def estimate(self, i: int) -> KernelEstimate:
        """The scalar :class:`KernelEstimate` of one row."""
        return KernelEstimate(
            time_s=float(self.times_s[i]),
            gpu_power_w=float(self.gpu_power_w[i]),
            cpu_power_w=float(self.cpu_power_w[i]),
        )

    def to_estimates(self) -> List[KernelEstimate]:
        """Materialize all rows as scalar estimates."""
        return [
            KernelEstimate(time_s=t, gpu_power_w=g, cpu_power_w=c)
            for t, g, c in zip(
                self.times_s.tolist(),
                self.gpu_power_w.tolist(),
                self.cpu_power_w.tolist(),
            )
        ]

    @classmethod
    def empty(cls) -> "EstimateBatch":
        """A zero-row batch."""
        return cls(np.empty(0), np.empty(0), np.empty(0))


class CpuPowerModel:
    """Normalized V²f CPU power model (Section IV-A3 of the paper).

    Busy-wait CPU power is well captured by ``a · V²f + b``; the two
    coefficients are calibrated offline from per-P-state measurements.

    Args:
        coef_w_per_v2ghz: Dynamic coefficient ``a``.
        static_w: Static term ``b``.
    """

    def __init__(self, coef_w_per_v2ghz: float, static_w: float) -> None:
        self.coef_w_per_v2ghz = coef_w_per_v2ghz
        self.static_w = static_w

    @classmethod
    def calibrate(cls, apu: APUModel) -> "CpuPowerModel":
        """Least-squares fit of (a, b) to busy-wait power measurements.

        One measurement per CPU P-state at a fixed GPU configuration —
        the kind of one-time calibration a vendor ships with the part.
        """
        v2f = []
        watts = []
        base = HardwareConfig(cpu="P1", nb="NB0", gpu="DPM4", cu=8)
        for name, state in CPU_PSTATES.items():
            config = base.replace(cpu=name)
            v2f.append(state.voltage**2 * state.freq_ghz)
            watts.append(apu.power.cpu_power(config, busy_cores=1))
        A = np.vstack([np.asarray(v2f), np.ones(len(v2f))]).T
        coef, static = np.linalg.lstsq(A, np.asarray(watts), rcond=None)[0]
        return cls(float(coef), float(static))

    def predict(self, config: HardwareConfig) -> float:
        """Busy-wait CPU power at a configuration, in watts."""
        state = config.cpu_state
        return self.coef_w_per_v2ghz * state.voltage**2 * state.freq_ghz + self.static_w


class PerfPowerPredictor(abc.ABC):
    """Interface of the performance and power predictor (Figure 6).

    One primitive, :meth:`estimate_matrix_many`, answers every query:
    columnar estimates for many kernels over the same
    :class:`~repro.hardware.table.ConfigTable` rows.  The one-kernel
    (:meth:`estimate_matrix`), configuration-list
    (:meth:`estimate_batch`) and single-configuration (:meth:`estimate`)
    entry points are views of it, so every caller sees the same floats.
    """

    @abc.abstractmethod
    def estimate_matrix_many(
        self,
        counters_list: Sequence[CounterVector],
        table: ConfigTable,
        indices: Optional[np.ndarray] = None,
    ) -> List[EstimateBatch]:
        """Columnar estimates for many kernels over the same table rows.

        The decide hot path's native interface: the optimizer computes
        a kernel's lattice sweep one cross of rows at a time, and
        ``SessionManager.step_batch`` stacks the fail-safe crosses of
        every ready session's vectors into one call.  Each returned
        batch must be float-for-float identical to a call for its
        counter vector alone — the differential step_batch suite and
        the golden-result suite depend on that.

        Args:
            counters_list: One Table-III counter vector per kernel.
            table: Columnar configuration set, shared by all kernels.
            indices: Optional flat row indices; all rows when ``None``.

        Returns:
            One :class:`EstimateBatch` per input counter vector, in
            order.
        """

    def estimate_matrix(self, counters: CounterVector, table: ConfigTable,
                        indices: Optional[np.ndarray] = None) -> EstimateBatch:
        """Columnar estimates for one kernel over table rows."""
        return self.estimate_matrix_many([counters], table, indices)[0]

    def estimate_batch(self, counters: CounterVector,
                       configs: Sequence[HardwareConfig]) -> List[KernelEstimate]:
        """Estimates for one kernel over a list of configurations."""
        if not configs:
            return []
        return self.estimate_matrix(counters, ConfigTable.from_configs(configs)).to_estimates()

    def estimate(self, counters: CounterVector,
                 config: HardwareConfig) -> KernelEstimate:
        """Predicted time and component powers at one configuration."""
        return self.estimate_matrix(counters, ConfigTable.from_configs((config,))).estimate(0)


class RandomForestPredictor(PerfPowerPredictor):
    """The paper's Random Forest kernel time / GPU power model.

    Both forests descend together: their trees form one flattened block
    (:func:`~repro.ml.forest.predict_forests`), built when the predictor
    is constructed or unpickled, and the only flattening of them.

    Args:
        time_forest: Forest trained on log kernel time.
        power_forest: Forest trained on GPU-rail power.
        cpu_model: Calibrated normalized-V²f CPU power model.
    """

    def __init__(self, time_forest: RandomForestRegressor,
                 power_forest: RandomForestRegressor,
                 cpu_model: CpuPowerModel) -> None:
        self.time_forest = time_forest
        self.power_forest = power_forest
        self.cpu_model = cpu_model
        prime_forests(self, (time_forest, power_forest))

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Intern string keys exactly as pickle's default load_build
        # does, so adding this hook leaves re-pickle bytes untouched.
        for key, value in state.items():
            if type(key) is str:
                key = sys.intern(key)
            self.__dict__[key] = value
        # Deserialized predictors (engine workers, the on-disk predictor
        # cache) go straight onto the hot path.
        prime_forests(self, (self.time_forest, self.power_forest))

    def estimate_matrix_many(
        self,
        counters_list: Sequence[CounterVector],
        table: ConfigTable,
        indices: Optional[np.ndarray] = None,
    ) -> List[EstimateBatch]:
        """One stacked descent of both forests for all kernels.

        Each kernel's counter row is broadcast next to the table's
        precomputed hardware feature block — the same floats
        :func:`~repro.ml.dataset.build_features` concatenates per config,
        without the per-row Python work — and all kernels' rows are
        stacked into one ``(kernels · configs, features)`` matrix, so
        the time and power forests descend once, together, for the
        whole batch.  Tree traversal is row-independent and the
        per-kernel slices are views of the same prediction arrays, so
        every returned batch is float-for-float what a call for that
        kernel alone returns, and each column is float-for-float its
        forest's own ``predict``.  CPU power is a gather from the
        table's memoized per-P-state column.
        """
        if not counters_list:
            return []
        block = table.feature_block if indices is None else table.feature_block[indices]
        n = block.shape[0]
        if n == 0:
            return [EstimateBatch.empty() for _ in counters_list]
        m = len(counters_list)
        width = counters_list[0].as_array().shape[0]
        X = np.empty((m * n, width + block.shape[1]))
        for i, counters in enumerate(counters_list):
            span = slice(i * n, (i + 1) * n)
            X[span, :width] = counters.as_array()
            X[span, width:] = block
        log_times, powers = predict_forests(
            self, (self.time_forest, self.power_forest), X
        )
        times = np.exp(log_times)
        powers = np.maximum(0.1, powers)
        cpu = table.cpu_power_column(self.cpu_model)
        if indices is not None:
            cpu = cpu[indices]
        return [
            EstimateBatch(
                times_s=times[i * n:(i + 1) * n],
                gpu_power_w=powers[i * n:(i + 1) * n],
                cpu_power_w=cpu,
            )
            for i in range(m)
        ]


#: Each oracle's whole-table ground truth: read-only (time, GPU power,
#: CPU power) columns per (table, resolved kernel index).  An oracle
#: call costs about the same whatever its row count, so every call
#: gathers its rows from one full matrix per kernel.  Module-level and
#: weak-keyed at both levels, like ``repro.ml.forest._FLAT_FORESTS``:
#: an oracle pickles and fingerprints the same whether it has answered
#: calls or not, and an ad-hoc table's matrices die with the table.
#: The keys encode validity: an oracle's APU model and kernel
#: population are set once, at construction, and a table is immutable.
_ORACLE_MATRICES: "weakref.WeakKeyDictionary[OraclePredictor, weakref.WeakKeyDictionary[ConfigTable, Dict[int, Tuple[np.ndarray, ...]]]]" = (
    weakref.WeakKeyDictionary()
)

#: Each oracle's kernel resolution: the relative-distance scale of its
#: nominal counters, and the resolved kernel index per counter vector
#: (a vector's entry dies with the vector).  Outside the instance for
#: the same reasons as :data:`_ORACLE_MATRICES`; a vector is immutable,
#: so its nearest kernel never changes.
_ORACLE_KERNELS: "weakref.WeakKeyDictionary[OraclePredictor, Tuple[np.ndarray, weakref.WeakKeyDictionary[CounterVector, int]]]" = (
    weakref.WeakKeyDictionary()
)


class OraclePredictor(PerfPowerPredictor):
    """Perfect predictor: looks the answer up in the ground-truth model.

    The oracle maps a counter vector back to the kernel it belongs to by
    nearest relative distance over the known kernel population's nominal
    counters — counters identify kernels, which is exactly the
    assumption the paper's pattern extractor makes.

    Args:
        apu: Ground-truth hardware model.
        kernels: The kernels that may be queried (e.g. an application's
            unique kernels).
    """

    def __init__(self, apu: APUModel, kernels: Sequence[KernelSpec]) -> None:
        if not kernels:
            raise ValueError("oracle needs a kernel population")
        self.apu = apu
        synthesizer = CounterSynthesizer(noise=0.0)
        self._specs: List[KernelSpec] = list(kernels)
        self._nominal = np.vstack(
            [synthesizer.nominal(spec).as_array() for spec in self._specs]
        )

    def _kernel_index(self, counters: CounterVector) -> int:
        """Index of the known kernel whose nominal counters best match."""
        memo = _ORACLE_KERNELS.get(self)
        if memo is None:
            scale = np.maximum(np.abs(self._nominal), 1e-9)
            memo = _ORACLE_KERNELS[self] = (scale, weakref.WeakKeyDictionary())
        scale, resolved = memo
        kernel = resolved.get(counters)
        if kernel is None:
            observed = counters.as_array()
            distance = np.sum(((self._nominal - observed) / scale) ** 2, axis=1)
            kernel = resolved[counters] = int(np.argmin(distance))
        return kernel

    def resolve(self, counters: CounterVector) -> KernelSpec:
        """The known kernel whose nominal counters best match."""
        return self._specs[self._kernel_index(counters)]

    def estimate_matrix_many(
        self,
        counters_list: Sequence[CounterVector],
        table: ConfigTable,
        indices: Optional[np.ndarray] = None,
    ) -> List[EstimateBatch]:
        """Rows of one ground-truth matrix evaluation per kernel and table.

        Each row is float-for-float :meth:`APUModel.execute
        <repro.hardware.apu.APUModel.execute>` of the resolved kernel at
        that row's configuration.  The first call for a (kernel, table)
        evaluates the whole table; every call gathers ``indices`` from
        that matrix.
        """
        per_table = _ORACLE_MATRICES.get(self)
        if per_table is None:
            per_table = _ORACLE_MATRICES[self] = weakref.WeakKeyDictionary()
        matrices = per_table.get(table)
        if matrices is None:
            matrices = per_table[table] = {}
        batches = []
        for counters in counters_list:
            kernel = self._kernel_index(counters)
            columns = matrices.get(kernel)
            if columns is None:
                matrix = self.apu.execute_matrix(self._specs[kernel], table)
                columns = (matrix.times_s, matrix.gpu_power_w, matrix.cpu_power_w)
                for column in columns:
                    column.flags.writeable = False
                matrices[kernel] = columns
            if indices is not None:
                columns = tuple(column[indices] for column in columns)
            batches.append(EstimateBatch(*columns))
        return batches


# ----- training -------------------------------------------------------------


#: The shipping forest's training recipe: the size of the synthetic
#: training population, :func:`train_predictor`'s defaults, and a
#: revision bumped when training changes in a way the other values do
#: not show.  It also feeds the forest's cache digest and every
#: default-forest engine key (``ExperimentContext.predictor_fingerprint``),
#: so changing a default changes both.
FOREST_RECIPE: Mapping[str, Any] = MappingProxyType({
    "population": 192,
    "n_estimators": 16,
    "max_depth": 16,
    "max_features": 0.6,
    "seed": 5,
    "revision": "v6",
})


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"rf_predictor_{key}.pkl")


def train_predictor(
    apu: Optional[APUModel] = None,
    kernels: Optional[Sequence[KernelSpec]] = None,
    space: Optional[ConfigSpace] = None,
    n_estimators: int = FOREST_RECIPE["n_estimators"],
    max_depth: int = FOREST_RECIPE["max_depth"],
    max_features: Union[int, float, str] = FOREST_RECIPE["max_features"],
    seed: int = FOREST_RECIPE["seed"],
    cache_dir: Optional[str] = None,
) -> RandomForestPredictor:
    """Offline-train the Random Forest performance/power predictor.

    The defaults are :data:`FOREST_RECIPE`'s.

    Args:
        apu: Ground-truth hardware model to characterize on.
        kernels: Training kernel population; defaults to the synthetic
            population of :data:`FOREST_RECIPE` size (the evaluation
            benchmarks stay out-of-sample).
        space: Configurations to characterize; defaults to all 336.
        n_estimators: Trees per forest.
        max_depth: Depth limit per tree.
        max_features: Features per split (see
            :class:`~repro.ml.forest.RandomForestRegressor`).
        seed: Seed for dataset noise and forest randomness.
        cache_dir: If given, pickle the trained predictor there and
            reuse it on identical parameters (training takes tens of
            seconds; experiments share one model).

    Returns:
        The trained predictor.
    """
    apu = apu if apu is not None else APUModel()
    kernels = (
        list(kernels) if kernels is not None
        else training_population(FOREST_RECIPE["population"])
    )
    space = space if space is not None else default_space()

    cache_file = None
    if cache_dir:
        digest = hashlib.sha256(
            repr(
                (
                    sorted(k.key for k in kernels),
                    len(space),
                    n_estimators,
                    max_depth,
                    max_features,
                    seed,
                    FOREST_RECIPE["revision"],
                )
            ).encode()
        ).hexdigest()[:16]
        cache_file = _cache_path(cache_dir, digest)
        if os.path.exists(cache_file):
            with open(cache_file, "rb") as handle:
                return pickle.load(handle)

    dataset = build_dataset(kernels, apu=apu, space=space, seed=seed)
    time_forest = RandomForestRegressor(
        n_estimators=n_estimators, max_depth=max_depth,
        max_features=max_features, seed=seed,
    ).fit(dataset.X, dataset.log_time)
    power_forest = RandomForestRegressor(
        n_estimators=n_estimators, max_depth=max_depth,
        max_features=max_features, seed=seed + 1,
    ).fit(dataset.X, dataset.gpu_power)
    predictor = RandomForestPredictor(
        time_forest, power_forest, CpuPowerModel.calibrate(apu)
    )

    if cache_file:
        os.makedirs(cache_dir, exist_ok=True)
        with open(cache_file, "wb") as handle:
            pickle.dump(predictor, handle)
    return predictor


def evaluate_predictor(
    predictor: RandomForestPredictor,
    kernels: Sequence[KernelSpec],
    apu: Optional[APUModel] = None,
    space: Optional[ConfigSpace] = None,
) -> Tuple[float, float]:
    """Out-of-sample MAPE of a predictor on a kernel set.

    Args:
        predictor: The predictor to evaluate.
        kernels: Evaluation kernels (e.g. the Table-IV benchmarks').
        apu: Ground truth to compare against.
        space: Configurations to sweep.

    Returns:
        ``(time_mape_pct, power_mape_pct)`` — the paper reports 25% and
        12% respectively for its 15 benchmarks.
    """
    apu = apu if apu is not None else APUModel()
    space = space if space is not None else default_space()
    synthesizer = CounterSynthesizer(noise=0.0)

    table = ConfigTable(space)
    true_t, pred_t, true_p, pred_p = [], [], [], []
    for spec in kernels:
        counters = synthesizer.nominal(spec)
        estimates = predictor.estimate_batch(counters, table.configs)
        measured = apu.execute_matrix(spec, table)
        true_t.extend(measured.times_s.tolist())
        pred_t.extend(estimate.time_s for estimate in estimates)
        true_p.extend(measured.gpu_power_w.tolist())
        pred_p.extend(estimate.gpu_power_w for estimate in estimates)

    return (
        mean_absolute_percentage_error(np.asarray(true_t), np.asarray(pred_t)),
        mean_absolute_percentage_error(np.asarray(true_p), np.asarray(pred_p)),
    )
