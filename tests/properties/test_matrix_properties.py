"""Property tests: the columnar decision core is float-identical to scalar.

The refactor's contract is *exact* equality, not tolerance: every row of
an ``estimate_matrix`` batch must carry the same float64 values the
pre-refactor scalar path computed, because the golden-result suite
pins simulation outputs byte-for-byte.  These tests compare against
references reconstructed outside the facades under test
(``build_features`` + per-row forest calls, one-launch ``apu.execute``
reads), so a drift in either path fails loudly.  ``apu.execute`` reads
one row of the same columnar ground truth a whole-table sweep
evaluates; the ground-truth formulas themselves are pinned against the
per-configuration reference in ``tests/differential/``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.hardware.apu import APUModel
from repro.hardware.config import KNOBS, ConfigSpace
from repro.hardware.table import ConfigTable
from repro.ml.dataset import build_features
from repro.ml.errors import SyntheticErrorPredictor
from repro.ml.predictors import OraclePredictor, PerfPowerPredictor, train_predictor
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec, ScalingClass

APU = APUModel()
SPACE = ConfigSpace()
TABLE = ConfigTable(SPACE)
SYNTH = CounterSynthesizer(noise=0.0)

KERNELS = [
    KernelSpec("mat-a", ScalingClass.COMPUTE, 5.0, 0.1, parallel_fraction=0.99),
    KernelSpec("mat-b", ScalingClass.MEMORY, 0.5, 1.0, parallel_fraction=0.9),
]
COUNTERS = [SYNTH.nominal(spec) for spec in KERNELS]

# Small forests keep the module import cheap; exactness does not depend
# on model size.
RF = train_predictor(apu=APU, kernels=KERNELS, n_estimators=3, max_depth=5)
ORACLE = OraclePredictor(APU, KERNELS)

index_st = st.integers(0, len(TABLE) - 1)
kernel_st = st.integers(0, len(KERNELS) - 1)


def _rf_reference(counters, config):
    """The pre-refactor scalar Random Forest estimate, reconstructed."""
    features = build_features(counters, config).reshape(1, -1)
    time_s = float(np.exp(float(RF.time_forest.predict(features)[0])))
    gpu_power_w = max(0.1, float(RF.power_forest.predict(features)[0]))
    cpu_power_w = RF.cpu_model.predict(config)
    return time_s, gpu_power_w, cpu_power_w


@settings(max_examples=60, deadline=None)
@given(kernel_st, index_st)
def test_rf_matrix_row_equals_scalar_reference(k, i):
    counters = COUNTERS[k]
    batch = RF.estimate_matrix(counters, TABLE)
    time_s, gpu_power_w, cpu_power_w = _rf_reference(
        counters, TABLE.config_at(i)
    )
    assert float(batch.times_s[i]) == time_s
    assert float(batch.gpu_power_w[i]) == gpu_power_w
    assert float(batch.cpu_power_w[i]) == cpu_power_w
    assert float(batch.energy_j[i]) == (gpu_power_w + cpu_power_w) * time_s


@settings(max_examples=60, deadline=None)
@given(kernel_st, index_st)
def test_rf_scalar_facades_equal_matrix_rows(k, i):
    counters = COUNTERS[k]
    config = TABLE.config_at(i)
    row = RF.estimate_matrix(counters, TABLE).estimate(i)
    single = RF.estimate(counters, config)
    [batched] = RF.estimate_batch(counters, [config])
    subset = RF.estimate_matrix(
        counters, TABLE, np.asarray([i], dtype=np.intp)
    ).estimate(0)
    for other in (single, batched, subset):
        assert other.time_s == row.time_s
        assert other.gpu_power_w == row.gpu_power_w
        assert other.cpu_power_w == row.cpu_power_w
        assert other.energy_j == row.energy_j


@settings(max_examples=60, deadline=None)
@given(kernel_st, index_st)
def test_oracle_matrix_row_equals_scalar_estimate(k, i):
    # The scalar reference is one ground-truth execution: what the
    # oracle's per-configuration estimate computed before it became a
    # view of the columnar path.
    counters = COUNTERS[k]
    config = TABLE.config_at(i)
    truth = APU.execute(KERNELS[k], config)
    row = ORACLE.estimate_matrix(counters, TABLE).estimate(i)
    single = ORACLE.estimate(counters, config)
    for est in (row, single):
        assert est.time_s == truth.time_s
        assert est.gpu_power_w == truth.gpu_power_w
        assert est.cpu_power_w == truth.cpu_power_w
        assert est.energy_j == (truth.gpu_power_w + truth.cpu_power_w) * truth.time_s


def test_oracle_matrix_matches_ground_truth_execution():
    spec, counters = KERNELS[0], COUNTERS[0]
    batch = ORACLE.estimate_matrix(counters, TABLE)
    for i in (0, len(TABLE) // 2, len(TABLE) - 1):
        truth = APU.execute(spec, TABLE.config_at(i))
        assert float(batch.times_s[i]) == truth.time_s
        assert float(batch.gpu_power_w[i]) == truth.gpu_power_w


def test_config_table_roundtrip_covers_full_lattice():
    assert TABLE.configs == tuple(SPACE.all_configs())
    for i, config in enumerate(TABLE.configs):
        assert TABLE.index_of_config(config) == i
        assert TABLE.config_at(i) == config


@given(index_st)
def test_cross_is_every_row_within_one_knob_move(i):
    origin = TABLE.config_at(i)
    expected = [
        j for j, config in enumerate(TABLE.configs)
        if sum(config.knob(knob) != origin.knob(knob) for knob in KNOBS) <= 1
    ]
    assert list(TABLE.moves().cross[i]) == expected


# ----- stacked multi-counter sweeps ------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(kernel_st, min_size=0, max_size=4))
def test_rf_estimate_matrix_many_equals_per_counter_sweeps(ks):
    # The stacked sweep feeds all counters through one forest call; its
    # per-counter slices must be float-identical to one-at-a-time
    # estimate_matrix sweeps (the batched step_batch contract).
    counters_list = [COUNTERS[k] for k in ks]
    stacked = RF.estimate_matrix_many(counters_list, TABLE)
    assert len(stacked) == len(counters_list)
    for counters, batch in zip(counters_list, stacked):
        single = RF.estimate_matrix(counters, TABLE)
        assert np.array_equal(batch.times_s, single.times_s)
        assert np.array_equal(batch.gpu_power_w, single.gpu_power_w)
        assert np.array_equal(batch.cpu_power_w, single.cpu_power_w)
        assert np.array_equal(batch.energy_j, single.energy_j)


@settings(max_examples=30, deadline=None)
@given(st.lists(kernel_st, min_size=1, max_size=3), st.lists(index_st, min_size=1, max_size=8))
def test_rf_estimate_matrix_many_with_indices(ks, idx):
    counters_list = [COUNTERS[k] for k in ks]
    indices = np.asarray(idx, dtype=np.intp)
    stacked = RF.estimate_matrix_many(counters_list, TABLE, indices)
    for counters, batch in zip(counters_list, stacked):
        single = RF.estimate_matrix(counters, TABLE, indices)
        assert np.array_equal(batch.times_s, single.times_s)
        assert np.array_equal(batch.energy_j, single.energy_j)


@settings(max_examples=20, deadline=None)
@given(st.lists(kernel_st, min_size=0, max_size=3))
def test_oracle_estimate_matrix_many_equals_per_counter_sweeps(ks):
    # Same contract as the forest's stacked descent.
    counters_list = [COUNTERS[k] for k in ks]
    stacked = ORACLE.estimate_matrix_many(counters_list, TABLE)
    for counters, batch in zip(counters_list, stacked):
        single = ORACLE.estimate_matrix(counters, TABLE)
        assert np.array_equal(batch.times_s, single.times_s)
        assert np.array_equal(batch.energy_j, single.energy_j)


# ----- synthetic-error wrapper (Figure 13) ------------------------------------

NOISY = SyntheticErrorPredictor(ORACLE, time_error=0.15, power_error=0.10, seed=3)


def _noisy_reference(k, config):
    """The wrapper's per-configuration formula: ground truth x error factors."""
    truth = APU.execute(KERNELS[k], config)
    time_factor, power_factor = NOISY._factors(COUNTERS[k], config)
    return (
        truth.time_s * time_factor,
        truth.gpu_power_w * power_factor,
        truth.cpu_power_w,
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(kernel_st, min_size=0, max_size=3),
    st.none() | st.lists(index_st, min_size=0, max_size=12),
)
def test_synthetic_error_rows_equal_scalar_reference(ks, idx):
    # idx None sweeps the whole table; a list picks a random subset.
    indices = None if idx is None else np.asarray(idx, dtype=np.intp)
    rows = range(len(TABLE)) if idx is None else idx
    batches = NOISY.estimate_matrix_many([COUNTERS[k] for k in ks], TABLE, indices)
    assert len(batches) == len(ks)
    for k, batch in zip(ks, batches):
        assert len(batch) == len(rows)
        for row, i in enumerate(rows):
            time_s, gpu_power_w, cpu_power_w = _noisy_reference(k, TABLE.config_at(i))
            assert float(batch.times_s[row]) == time_s
            assert float(batch.gpu_power_w[row]) == gpu_power_w
            assert float(batch.cpu_power_w[row]) == cpu_power_w
            assert float(batch.energy_j[row]) == (gpu_power_w + cpu_power_w) * time_s


# ----- optimizer sweeps, computed a cross at a time ---------------------------


class _RowLog(PerfPowerPredictor):
    """Delegates, logging every (counter values, row) a call computes."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []

    def estimate_matrix_many(self, counters_list, table, indices=None):
        rows = range(len(table)) if indices is None else indices.tolist()
        self.rows.extend((c, i) for c in counters_list for i in rows)
        return self.inner.estimate_matrix_many(counters_list, table, indices)


PREDICTORS = {"rf": RF, "oracle": ORACLE, "noisy": NOISY}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PREDICTORS)),
    kernel_st,
    st.lists(index_st, min_size=1, max_size=40),
)
def test_cached_sweep_rows_equal_full_sweep_in_any_read_order(name, k, reads):
    predictor = _RowLog(PREDICTORS[name])
    optimizer = GreedyHillClimbOptimizer(SPACE, predictor)
    counters = COUNTERS[k]
    full = PREDICTORS[name].estimate_matrix(counters, optimizer.table)
    for i in reads:
        # A search reads a row it lacks by filling the cross through it.
        [sweep] = optimizer.sweep_many([counters])
        optimizer._fill_missing(sweep, optimizer.table.moves().cross[i])
        assert sweep.estimate(i) == full.estimate(i)
    # No row of the vector is computed twice.
    assert len(predictor.rows) == len(set(predictor.rows))
