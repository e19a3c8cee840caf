"""Property tests: the flattened forest is float-identical to per-tree.

The flattening's contract is *exact* equality: the fixed-depth
vectorized descent over concatenated self-looping node arrays must
return the same float64 values as the historical per-tree loop
(sequential accumulation in tree order), because the golden-result
suite pins simulation outputs byte-for-byte.  The references here are
reconstructed independently — per-tree ``tree.predict`` calls and a
pure-Python recursive descent of the tree arrays — so a drift in either
layout fails loudly.  Queries mix in NaN and ±inf, which a split must
send right (NaN) or compare as ordinary floats (±inf) while a leaf's
self-loop ignores them, and targets are often constant but for a row
or two, so bootstrap resamples fit root-only trees beside deep ones.
Pickle bytes are asserted invariant under prediction: flat arrays are
derived state and must never leak into serialized forests.

Groups of forests (``predict_forests``: a ``RandomForestPredictor``
descends its time and power forests in one block) vary tree counts,
depths and split widths per member, and each member's row of the group
output must equal both references for that forest alone.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.ml.forest as forest_module
from repro.engine.fingerprint import describe
from repro.hardware.config import ConfigSpace
from repro.hardware.table import ConfigTable
from repro.ml.forest import (
    _FLAT_FORESTS,
    PREDICT_BLOCK_ROWS,
    RandomForestRegressor,
    predict_forests,
)
from repro.ml.predictors import CpuPowerModel, RandomForestPredictor, train_predictor
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec, ScalingClass

forest_params_st = st.tuples(
    st.integers(1, 6),  # n_estimators
    st.integers(1, 8),  # max_depth
    st.integers(1, 4),  # min_samples_leaf
    st.integers(0, 2**16),  # seed
)


def _spiked(n, level, spikes):
    """A constant target but for at most a few rows."""
    y = np.full(n, level)
    for row, value in spikes.items():
        y[row] = value
    return y


def _targets(n):
    return st.one_of(
        arrays(np.float64, (n,), elements=st.floats(-100, 100), fill=st.nothing()),
        st.builds(
            _spiked,
            st.just(n),
            st.floats(-100, 100),
            st.dictionaries(
                st.integers(0, n - 1), st.floats(-100, 100), min_size=1, max_size=2
            ),
        ),
    )


query_st = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.just(4)),
    elements=st.one_of(
        st.floats(-50, 50), st.sampled_from([np.nan, np.inf, -np.inf])
    ),
)

dataset_st = st.integers(8, 60).flatmap(
    lambda n: st.tuples(
        # Every entry drawn on its own (no fill value), so features
        # have the distinct values deep splits need.
        arrays(np.float64, (n, 4), elements=st.floats(-50, 50), fill=st.nothing()),
        _targets(n),
        query_st,
    )
)


def _fit(params, data):
    """The fitted forest and its inputs: training rows, then queries."""
    n_estimators, max_depth, min_samples_leaf, seed = params
    X, y, queries = data
    forest = RandomForestRegressor(
        n_estimators=n_estimators,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        seed=seed,
    )
    return forest.fit(X, y), np.vstack((X, queries))


def _per_tree_reference(forest, X):
    """The historical predict: one tree.predict per tree, sequential sum."""
    acc = np.zeros(X.shape[0], dtype=float)
    for tree in forest.trees:
        acc += tree.predict(X)
    return acc / len(forest.trees)


def _recursive_reference(forest, X):
    """Pure-Python recursive descent of each tree's node arrays."""

    def descend(tree, node, x):
        feature = int(tree._feature[node])
        if feature < 0:
            return float(tree._value[node])
        if x[feature] <= tree._threshold[node]:
            return descend(tree, int(tree._left[node]), x)
        return descend(tree, int(tree._right[node]), x)

    acc = np.zeros(X.shape[0], dtype=float)
    for tree in forest.trees:
        acc += np.array([descend(tree, 0, x) for x in X])
    return acc / len(forest.trees)


@settings(max_examples=40, deadline=None)
@given(forest_params_st, dataset_st)
def test_flattened_predict_equals_per_tree_reference(params, data):
    forest, X = _fit(params, data)
    assert np.array_equal(forest.predict(X), _per_tree_reference(forest, X))


@settings(max_examples=8, deadline=None)
@given(forest_params_st, dataset_st, st.integers(1, PREDICT_BLOCK_ROWS + 1))
def test_input_taller_than_a_block_predicts_like_single_rows(params, data, extra):
    # predict descends at most PREDICT_BLOCK_ROWS rows at once; rows on
    # either side of each block boundary must still predict exactly as
    # they do alone.  Row r repeats training/query row r mod n shifted
    # by r/1000, so rows differ across the boundaries.
    forest, X = _fit(params, data)
    rows = PREDICT_BLOCK_ROWS + extra
    tall = np.resize(X, (rows, X.shape[1])) + np.arange(rows)[:, None] / 1000
    singles = np.array([forest.predict(row[None, :])[0] for row in tall])
    assert np.array_equal(forest.predict(tall), singles)


@settings(max_examples=15, deadline=None)
@given(forest_params_st, dataset_st)
def test_flattened_predict_equals_recursive_reference(params, data):
    forest, X = _fit(params, data)
    assert np.array_equal(forest.predict(X), _recursive_reference(forest, X))


@settings(max_examples=25, deadline=None)
@given(forest_params_st, dataset_st)
def test_unpickled_forest_predicts_identically(params, data):
    forest, X = _fit(params, data)
    clone = pickle.loads(pickle.dumps(forest))
    assert np.array_equal(clone.predict(X), forest.predict(X))


@settings(max_examples=25, deadline=None)
@given(forest_params_st, dataset_st)
def test_prediction_never_changes_pickle_bytes(params, data):
    # Flat arrays are derived state in a module-level weak-key memo:
    # predicting (which builds/uses them) must leave pickles untouched.
    forest, X = _fit(params, data)
    before = pickle.dumps(forest)
    forest.predict(X)
    assert pickle.dumps(forest) == before


@settings(max_examples=25, deadline=None)
@given(forest_params_st, dataset_st)
def test_legacy_unpickle_without_primed_arrays(params, data):
    # A predictor unpickled without its group block (a pickle whose
    # trees carry node arrays but for which no block was ever built)
    # must rebuild it on first use and predict exactly like the
    # predictor it was pickled from.
    predictor, X = _predictor(params, data)
    legacy = pickle.loads(pickle.dumps(predictor))
    _FLAT_FORESTS.pop(legacy, None)  # simulate a cold, legacy unpickle
    assert np.array_equal(_both(legacy, X), _both(predictor, X))


@settings(max_examples=20, deadline=None)
@given(forest_params_st, dataset_st, st.booleans())
def test_refit_invalidates_stale_flat_arrays(params, data, one_tree):
    # Refitting one member tree keeps every tree object and swaps only
    # that tree's node arrays, so a tree-identity check alone misses it.
    forest, X = _fit(params, data)
    forest.predict(X)  # memoize the first flattening
    rng = np.random.default_rng(1234)
    train = data[0]
    refit = forest.trees[0] if one_tree else forest
    refit.fit(train, rng.normal(size=train.shape[0]))  # in place
    assert np.array_equal(forest.predict(X), _per_tree_reference(forest, X))


@settings(max_examples=25, deadline=None)
@given(forest_params_st, dataset_st)
def test_nan_row_takes_the_right_branch_at_every_split(params, data):
    forest, _ = _fit(params, data)

    def rightmost_leaf_value(tree):
        node = 0
        while tree._feature[node] >= 0:
            node = int(tree._right[node])
        return float(tree._value[node])

    acc = 0.0
    for tree in forest.trees:
        acc += rightmost_leaf_value(tree)
    expected = acc / len(forest.trees)
    assert forest.predict(np.full((1, 4), np.nan))[0] == expected


# ----- groups of forests ----------------------------------------------------

#: One group member: its forest parameters and how many leading input
#: columns it trains on (so members' split widths differ).
member_st = st.tuples(forest_params_st, st.integers(1, 4))
group_st = st.lists(member_st, min_size=1, max_size=3)


class _Owner:
    """A weak-referenceable key for a group's flattening."""


def _fit_group(group, data):
    """Fitted member forests (each on its own target) and the queries."""
    X, y, queries = data
    forests = [
        RandomForestRegressor(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            seed=seed,
        ).fit(X[:, :columns], np.roll(y, index))
        for index, ((n_estimators, max_depth, min_samples_leaf, seed), columns)
        in enumerate(group)
    ]
    return forests, np.vstack((X, queries))


def _predictor(params, data):
    """A predictor whose time and power forests differ in seed and target."""
    forest, X = _fit(params, data)
    n_estimators, max_depth, min_samples_leaf, seed = params
    power = RandomForestRegressor(
        n_estimators=n_estimators,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        seed=seed + 1,
    ).fit(data[0], np.roll(data[1], 1))
    return RandomForestPredictor(forest, power, CpuPowerModel(1.0, 0.0)), X


def _both(predictor, X):
    return predict_forests(
        predictor, (predictor.time_forest, predictor.power_forest), X
    )


@settings(max_examples=40, deadline=None)
@given(group_st, dataset_st)
def test_group_descent_equals_both_references(group, data):
    forests, X = _fit_group(group, data)
    out = predict_forests(_Owner(), forests, X)
    assert out.shape == (len(forests), X.shape[0])
    for forest, row in zip(forests, out):
        assert np.array_equal(row, _per_tree_reference(forest, X))
        assert np.array_equal(row, _recursive_reference(forest, X))


@settings(max_examples=8, deadline=None)
@given(group_st, dataset_st, st.integers(1, PREDICT_BLOCK_ROWS + 1))
def test_group_input_taller_than_a_block(group, data, extra):
    forests, X = _fit_group(group, data)
    rows = PREDICT_BLOCK_ROWS + extra
    tall = np.resize(X, (rows, X.shape[1])) + np.arange(rows)[:, None] / 1000
    out = predict_forests(_Owner(), forests, tall)
    for forest, row in zip(forests, out):
        assert np.array_equal(row, _per_tree_reference(forest, tall))


@settings(max_examples=20, deadline=None)
@given(forest_params_st, dataset_st, st.sampled_from(["time", "power", "tree"]))
def test_refit_invalidates_the_group_flattening(params, data, refit):
    # Refitting either forest rebinds its tree list; refitting one tree
    # of the second forest in place keeps every tree object and swaps
    # only that tree's node arrays.
    predictor, X = _predictor(params, data)
    _both(predictor, X)  # memoize the first flattening
    rng = np.random.default_rng(1234)
    train, target = data[0], rng.normal(size=data[0].shape[0])
    if refit == "tree":
        predictor.power_forest.trees[-1].fit(train, target)
    else:
        getattr(predictor, f"{refit}_forest").fit(train, target)
    out = _both(predictor, X)
    assert np.array_equal(out[0], _per_tree_reference(predictor.time_forest, X))
    assert np.array_equal(out[1], _per_tree_reference(predictor.power_forest, X))


@settings(max_examples=20, deadline=None)
@given(forest_params_st, dataset_st)
def test_prediction_leaves_pickles_and_descriptions_unchanged(params, data):
    predictor, X = _predictor(params, data)
    subjects = (predictor, predictor.time_forest, predictor.power_forest)
    before = [(pickle.dumps(obj), describe(obj)) for obj in subjects]
    _both(predictor, X)
    predictor.time_forest.predict(X)
    assert [(pickle.dumps(obj), describe(obj)) for obj in subjects] == before


@settings(max_examples=15, deadline=None)
@given(forest_params_st, dataset_st)
def test_unpickled_predictor_holds_one_flattening(params, data):
    # The group block replaces the per-forest flattenings: unpickling
    # primes it, and neither forest gets a block of its own, before or
    # after the predictor answers.
    predictor, X = _predictor(params, data)
    clone = pickle.loads(pickle.dumps(predictor))
    members = (clone, clone.time_forest, clone.power_forest)
    assert [obj in _FLAT_FORESTS for obj in members] == [True, False, False]
    _both(clone, X)
    assert [obj in _FLAT_FORESTS for obj in members] == [True, False, False]


def test_priming_hook_repickles_like_default_unpickling(monkeypatch):
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(40, 4)), rng.normal(size=40)
    predictor = RandomForestPredictor(
        RandomForestRegressor(n_estimators=3, seed=1).fit(X, y),
        RandomForestRegressor(n_estimators=2, seed=2).fit(X, -y),
        CpuPowerModel(1.0, 0.0),
    )
    data = pickle.dumps(predictor)
    primed = pickle.loads(data)
    monkeypatch.delattr(RandomForestPredictor, "__setstate__")
    default = pickle.loads(data)
    assert primed in _FLAT_FORESTS and default not in _FLAT_FORESTS
    assert pickle.dumps(primed) == pickle.dumps(default)


def test_one_block_call_runs_one_descent(monkeypatch):
    kernels = [
        KernelSpec("a", ScalingClass.COMPUTE, 5.0, 0.1, parallel_fraction=0.99),
        KernelSpec("b", ScalingClass.MEMORY, 0.5, 1.0, parallel_fraction=0.9),
    ]
    space = ConfigSpace(
        cpu_states=("P7", "P1"), nb_states=("NB3", "NB0"),
        gpu_states=("DPM0", "DPM4"), cu_counts=(2, 8),
    )
    predictor = train_predictor(kernels=kernels, space=space, n_estimators=3, max_depth=5)
    table = ConfigTable.from_configs(space.all_configs())
    counters = [CounterSynthesizer().observe(spec) for spec in kernels]
    expected = predictor.estimate_matrix_many(counters, table)
    descents = []
    descend = forest_module._descend

    def counting(flat, X):
        descents.append(X.shape[0])
        return descend(flat, X)

    monkeypatch.setattr(forest_module, "_descend", counting)
    batches = predictor.estimate_matrix_many(counters, table)
    assert descents == [2 * len(table)]
    for batch, reference in zip(batches, expected):
        assert np.array_equal(batch.times_s, reference.times_s)
        assert np.array_equal(batch.gpu_power_w, reference.gpu_power_w)
