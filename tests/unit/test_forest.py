"""Unit tests for the Random Forest regressor and MAPE metric."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor, mean_absolute_percentage_error
from repro.ml.tree import DecisionTreeRegressor


def _noisy_surface(n=500, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 4))
    y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + 0.1 * rng.normal(size=n)
    return X, y


def _stump(left, right):
    """A hand-built one-split tree on column 0 with four node slots."""
    tree = DecisionTreeRegressor()
    tree._feature = np.array([0, -1, -1, -1])
    tree._threshold = np.array([0.5, 0.0, 0.0, 0.0])
    tree._left = np.array([left, -1, -1, -1])
    tree._right = np.array([right, -1, -1, -1])
    tree._value = np.array([0.0, 1.0, 2.0, 3.0])
    return tree


class TestValidation:
    def test_zero_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_bad_max_features_string(self):
        forest = RandomForestRegressor(max_features="log2")
        with pytest.raises(ValueError):
            forest.fit(*_noisy_surface(50))

    def test_bad_fraction(self):
        forest = RandomForestRegressor(max_features=1.5)
        with pytest.raises(ValueError):
            forest.fit(*_noisy_surface(50))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 4)))

    @pytest.mark.parametrize("rows", [1, 5])
    def test_narrow_input_rejected(self, rows):
        # The splits read column 3; a narrower X must fail loudly, not
        # read a neighbouring row's entries.
        X, y = _noisy_surface()
        forest = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="X has 3 columns .* at least 4"):
            forest.predict(X[:rows, :3])

    def test_non_adjacent_children_rejected(self):
        forest = RandomForestRegressor(n_estimators=1)
        forest.trees = [_stump(left=2, right=3)]
        assert forest.predict(np.array([[0.0], [1.0]])).tolist() == [2.0, 3.0]
        forest.trees = [_stump(left=1, right=3)]
        with pytest.raises(ValueError, match="children 1 and 3 are not adjacent"):
            forest.predict(np.array([[0.0]]))

    def test_negative_zero_leaves_average_to_positive_zero(self):
        # The per-tree loop sums from a +0.0 accumulator, so leaves of
        # -0.0 average to +0.0; the descent matches it bit for bit.
        forest = RandomForestRegressor(n_estimators=2)
        forest.trees = [_stump(left=2, right=3), _stump(left=2, right=3)]
        for tree in forest.trees:
            tree._value = np.array([0.0, 0.0, -0.0, -0.0])
        out = forest.predict(np.array([[0.0], [1.0]]))
        assert out.tolist() == [0.0, 0.0] and not np.signbit(out).any()


class TestFitting:
    def test_learns_smooth_surface(self):
        X, y = _noisy_surface()
        forest = RandomForestRegressor(n_estimators=10, max_depth=8, seed=0).fit(X, y)
        residual = forest.predict(X) - y
        assert np.sqrt(np.mean(residual**2)) < 0.4

    def test_deterministic_given_seed(self):
        X, y = _noisy_surface()
        a = RandomForestRegressor(n_estimators=5, seed=42).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=5, seed=42).fit(X, y).predict(X)
        assert np.allclose(a, b)

    def test_seed_changes_model(self):
        X, y = _noisy_surface()
        a = RandomForestRegressor(n_estimators=5, seed=1).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=5, seed=2).fit(X, y).predict(X)
        assert not np.allclose(a, b)

    def test_prediction_is_tree_mean(self):
        X, y = _noisy_surface(100)
        forest = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
        stacked = np.mean([t.predict(X) for t in forest.trees], axis=0)
        assert np.allclose(forest.predict(X), stacked)

    def test_target_range_recorded(self):
        X, y = _noisy_surface()
        forest = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
        lo, hi = forest.target_range
        assert lo == pytest.approx(y.min())
        assert hi == pytest.approx(y.max())

    def test_predictions_within_target_range(self):
        X, y = _noisy_surface()
        forest = RandomForestRegressor(n_estimators=5, seed=0).fit(X, y)
        preds = forest.predict(np.random.default_rng(9).uniform(-2, 3, size=(200, 4)))
        lo, hi = forest.target_range
        assert np.all(preds >= lo - 1e-9) and np.all(preds <= hi + 1e-9)

    def test_no_bootstrap_with_full_features_reduces_to_bagging_of_identical(self):
        X, y = _noisy_surface(200)
        forest = RandomForestRegressor(
            n_estimators=3, bootstrap=False, max_features=1.0, seed=0
        ).fit(X, y)
        a, b, c = (t.predict(X) for t in forest.trees)
        assert np.allclose(a, b) and np.allclose(b, c)


class TestMape:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 4.0])
        assert mean_absolute_percentage_error(y, y) == 0.0

    def test_known_value(self):
        y_true = np.array([2.0, 4.0])
        y_pred = np.array([3.0, 3.0])
        assert mean_absolute_percentage_error(y_true, y_pred) == pytest.approx(37.5)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error(np.array([0.0]), np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error(np.ones(3), np.ones(2))
