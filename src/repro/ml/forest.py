"""Random Forest regression (Breiman 2001), from scratch.

The paper selects Random Forest for its performance/power model because
"it gave the highest accuracy among other learning algorithms".  This
implementation follows the classic recipe: each tree is fit on a
bootstrap resample of the training set, considers a random feature
subset at every split, and the forest predicts the mean of its trees.

Prediction runs on a *flattened* block of trees: every fitted tree's
node arrays are concatenated into one contiguous block (child pointers
shifted by per-tree offsets, each leaf a self-loop) so a whole batch
descends all trees in a fixed number of identical vectorized levels
instead of one Python call per tree (in blocks of at most
``PREDICT_BLOCK_ROWS`` rows).  One block may hold several forests:
:func:`predict_forests` descends them all at once and averages each
forest's trees separately, and ``RandomForestRegressor.predict`` is its
one-forest case.  The flat arrays are derived state — built on first
use, or primed by whoever owns the forests, and memoized in a
module-level WeakKeyDictionary — so pickles and structural fingerprints
of the forest are byte-identical to the per-tree layout.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "RandomForestRegressor",
    "mean_absolute_percentage_error",
    "predict_forests",
    "prime_forests",
]


@dataclass(frozen=True)
class _FlatForest:
    """Forests' trees as one contiguous block of self-looping nodes.

    A lane at global node ``i`` steps to
    ``right[i] - (x[feature[i]] <= threshold[i])``: its right child, or
    its left child one slot before it (``DecisionTreeRegressor.fit``
    creates both children as an adjacent pair).  A leaf reads the
    constant sentinel column ``width`` of the padded input against a
    ``+inf`` threshold and has ``right[i] == i + 1``, so it always steps
    back to itself.  ``depth`` identical levels thus bring every lane
    of every tree to its leaf.  The trees of each forest are adjacent,
    in forest order, ``sizes`` trees per forest.
    """

    feature: np.ndarray  # split columns; the sentinel ``width`` at leaves
    threshold: np.ndarray  # float64 split thresholds; +inf at leaves
    right: np.ndarray  # int64 global right children; i + 1 at leaf i
    value: np.ndarray  # float64 node means (leaf predictions)
    roots: np.ndarray  # int64 per-tree root offsets
    width: int  # input columns the splits read: highest split column + 1
    depth: int  # levels of the deepest tree: the descent's loop count
    sizes: Tuple[int, ...]  # trees per forest, in forest order
    trees: Tuple[DecisionTreeRegressor, ...]
    node_arrays: Tuple[np.ndarray, ...]

    def matches(self, forests: Sequence["RandomForestRegressor"]) -> bool:
        """Whether this flattening is still current for ``forests``.

        Identity of every member tree and of its node arrays is
        checked: refitting a forest, replacing a tree *or* refitting
        one in place (which swaps its ``_feature`` array) invalidates
        the flattening.
        """
        return self.sizes == tuple(len(forest.trees) for forest in forests) and all(
            tree is kept and tree._feature is nodes
            for tree, kept, nodes in zip(
                (tree for forest in forests for tree in forest.trees),
                self.trees,
                self.node_arrays,
            )
        )


def _flatten(forests: Sequence["RandomForestRegressor"]) -> _FlatForest:
    """Concatenate the forests' fitted trees into one block.

    Raises:
        RuntimeError: A forest or one of its trees is not fitted.
        ValueError: An internal node's children are not an adjacent
            ``(right - 1, right)`` pair, which the single ``right``
            child array cannot represent.
    """
    if not all(forest.trees for forest in forests):
        raise RuntimeError("forest is not fitted")
    trees = [tree for forest in forests for tree in forest.trees]
    if any(tree._feature is None for tree in trees):
        raise RuntimeError("tree is not fitted")
    sizes = [tree.node_count for tree in trees]
    total = sum(sizes)
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    width = max(int(tree._feature.max(initial=-1)) for tree in trees) + 1
    # Leaf defaults first: the sentinel column, a +inf threshold, and
    # right == i + 1 at global index i, so a leaf's ``right - 1`` step
    # is a self-loop.  Each tree then writes its internal nodes.
    # Columns are stored in the narrowest unsigned type that holds the
    # sentinel: one byte for the shipping features, which keeps their
    # block 5.6 MB smaller, and the gather every level makes from this
    # array touches less memory.
    feature = np.full(total, width, dtype=np.min_scalar_type(width))
    threshold = np.full(total, np.inf)
    right = np.arange(1, total + 1, dtype=np.int64)
    for index, (tree, offset) in enumerate(zip(trees, roots)):
        internal = tree._feature >= 0
        apart = np.flatnonzero(internal & (tree._left != tree._right - 1))
        if apart.size:
            node = int(apart[0])
            raise ValueError(
                f"tree {index} node {node}: children {tree._left[node]} "
                f"and {tree._right[node]} are not adjacent"
            )
        span = slice(offset, offset + internal.size)
        np.copyto(feature[span], tree._feature, where=internal, casting="unsafe")
        np.copyto(threshold[span], tree._threshold, where=internal)
        # Child pointers shift by the tree's node offset.
        np.add(tree._right, offset, out=right[span], where=internal)
    # The loop count: a breadth-first walk of all trees at once, one
    # level per pass; the passes together visit each node once.
    internal = feature < width
    depth = 0
    frontier = roots[internal[roots]]
    while frontier.size:
        depth += 1
        children = right[frontier]
        frontier = np.concatenate((children - 1, children))
        frontier = np.compress(internal[frontier], frontier)
    return _FlatForest(
        feature=feature,
        threshold=threshold,
        right=right,
        value=np.concatenate([tree._value for tree in trees]),
        roots=roots,
        width=width,
        depth=depth,
        sizes=tuple(len(forest.trees) for forest in forests),
        trees=tuple(trees),
        node_arrays=tuple(t._feature for t in trees),  # type: ignore[misc]
    )


#: Derived flat arrays per owner: a forest for its own ``predict``, or
#: the object that descends several forests together (a
#: ``RandomForestPredictor`` keeps its time and power forests in one
#: block, and that block is the only flattening of them).  A
#: module-level weak-key memo — never an instance attribute — so
#: flattening neither changes pickle bytes nor perturbs structural
#: fingerprints (same discipline as
#: ``repro.hardware.table._CPU_POWER_COLUMNS``).  Readers must
#: revalidate hits against the live forests (``matches``) before use —
#: a refit rebinds ``forest.trees`` without touching the memo.
_FLAT_FORESTS: "weakref.WeakKeyDictionary[object, _FlatForest]" = (
    weakref.WeakKeyDictionary()
)


def _flat_forests(owner: object, forests: Sequence["RandomForestRegressor"]) -> _FlatForest:
    """The current flattening of ``forests`` under ``owner``, (re)built when stale."""
    flat = _FLAT_FORESTS.get(owner)
    if flat is None or not flat.matches(forests):
        flat = _FLAT_FORESTS[owner] = _flatten(forests)
    return flat


def prime_forests(owner: object, forests: Sequence["RandomForestRegressor"]) -> None:
    """Flatten ``forests`` under ``owner`` now, so its first call is fast.

    Forests with no trees, or with unfitted trees (legacy or hand-built
    pickles), are left to the lazy build in :func:`predict_forests`.
    """
    if all(
        forest.trees and all(tree._feature is not None for tree in forest.trees)
        for forest in forests
    ):
        _flat_forests(owner, forests)


#: Most rows one descent walks at once.  Every (tree, row) lane of a
#: block gathers from the flat node arrays on each level, and a stacked
#: sweep of 16 lattices (5,376 rows) makes those lane arrays too big to
#: stay in cache.  Measured through the shipping predictor's one
#: 32-tree block on a 2-vCPU host (medians of 21 alternated timings,
#: blocks of 512 / 768 / 1,024 / 1,536 / 2,048 rows): the 16-lattice
#: stack took 34.4 / 33.9 / 35.1 / 35.4 / 38.8 ms, and a 960-row
#: stack (64 sessions' fail-safe crosses) 6.1 / 6.0 / 5.8 / 5.9 /
#: 5.9 ms, so this size keeps that stack in one descent at no cost to
#: the taller one.  Rows are independent, so the block size never
#: changes a prediction.
PREDICT_BLOCK_ROWS = 1024


def _descend(flat: _FlatForest, X: np.ndarray) -> np.ndarray:
    """Each flattened forest's mean over the rows of ``X``, one row per forest."""
    n = X.shape[0]
    # Row-major copy of the split columns plus the leaves' sentinel
    # column ``width``, whose 0.0 is always <= their +inf threshold.
    stride = flat.width + 1
    padded = np.zeros((n, stride))
    padded[:, : flat.width] = X[:, : flat.width]
    x = padded.ravel()
    # Lane i*n + j descends tree i with sample j.
    nodes = np.repeat(flat.roots, n)
    row_base = np.tile(np.arange(0, n * stride, stride), flat.roots.size)
    for _ in range(flat.depth):
        nodes = flat.right[nodes] - (
            x[row_base + flat.feature[nodes]] <= flat.threshold[nodes]
        )
    per_tree = flat.value[nodes].reshape(flat.roots.size, n)
    means = np.empty((len(flat.sizes), n))
    start = 0
    for mean, size in zip(means, flat.sizes):
        # Sequential accumulation in tree order (np.sum's pairwise
        # reduction would drift in the last ulp); adding 0.0 turns an
        # all-(-0.0) sum into the +0.0 that ``for tree: acc += ...``
        # from a zero ``acc`` gives, so each mean is float-for-float
        # that loop's.
        total = np.cumsum(per_tree[start : start + size], axis=0)[-1] + 0.0
        np.divide(total, size, out=mean)
        start += size
    return means


def predict_forests(
    owner: object, forests: Sequence["RandomForestRegressor"], X: np.ndarray
) -> np.ndarray:
    """Each forest's mean prediction over ``X``, from one shared descent.

    The forests' trees form one flattened block, memoized under
    ``owner`` (weakly, outside the instance; an owner passes the same
    forests every time, or each call rebuilds the block).  Rows descend
    in blocks of at most :data:`PREDICT_BLOCK_ROWS`.  Within a block,
    every (tree, sample) lane of every forest descends at once through
    exactly ``depth`` identical levels of one gather-compare-step
    expression; a lane that reaches its leaf early loops on it.  Each
    forest's per-tree values are then accumulated in tree order
    (exactly the float semantics of the historical per-tree loop) and
    averaged.

    Returns:
        An array of shape ``(len(forests), n)``: row ``i`` is
        float-for-float ``forests[i].predict(X)``.

    Raises:
        RuntimeError: A forest is not fitted.
        ValueError: ``X`` has fewer columns than the splits read.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    flat = _flat_forests(owner, forests)
    n, columns = X.shape
    if columns < flat.width:
        raise ValueError(
            f"X has {columns} columns but the forest splits on column "
            f"{flat.width - 1}, so it needs at least {flat.width}"
        )
    out = np.empty((len(forests), n))
    for start in range(0, n, PREDICT_BLOCK_ROWS):
        stop = start + PREDICT_BLOCK_ROWS
        out[:, start:stop] = _descend(flat, X[start:stop])
    return out


class RandomForestRegressor:
    """Bootstrap-aggregated ensemble of CART regression trees.

    Args:
        n_estimators: Number of trees.
        max_depth: Depth limit for each tree.
        min_samples_leaf: Leaf-size limit for each tree.
        max_features: Features per split: an int, a float fraction, or
            ``"sqrt"`` (default) for ``round(sqrt(n_features))``.
        bootstrap: Whether to resample the training set per tree.
        seed: Seed for bootstrap and feature-subset draws.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: Union[int, float, str] = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees: List[DecisionTreeRegressor] = []
        self._target_min: float = -math.inf
        self._target_max: float = math.inf

    def _resolve_max_features(self, n_features: int) -> int:
        if isinstance(self.max_features, str):
            if self.max_features != "sqrt":
                raise ValueError(f"unknown max_features: {self.max_features!r}")
            return max(1, round(math.sqrt(n_features)))
        if isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValueError("fractional max_features must be in (0, 1]")
            return max(1, round(self.max_features * n_features))
        if self.max_features < 1:
            raise ValueError("max_features must be at least 1")
        return min(n_features, self.max_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the ensemble.

        Args:
            X: Feature matrix of shape (n_samples, n_features).
            y: Target vector of shape (n_samples,).

        Returns:
            ``self``, for chaining.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        max_features = self._resolve_max_features(d)

        self.trees = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=np.random.default_rng(rng.integers(2**63)),
            )
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                tree.fit(X[sample], y[sample])
            else:
                tree.fit(X, y)
            self.trees.append(tree)

        self._target_min = float(y.min())
        self._target_max = float(y.max())
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return bool(self.trees)

    @property
    def target_range(self) -> tuple:
        """(min, max) of the training targets; predictions stay inside."""
        return self._target_min, self._target_max

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across all trees for a batch of samples.

        The one-forest case of :func:`predict_forests`, flattened under
        the forest itself.

        Raises:
            RuntimeError: The forest is not fitted.
            ValueError: ``X`` has fewer columns than the splits read.
        """
        return predict_forests(self, (self,), X)[0]


def mean_absolute_percentage_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """MAPE in percent, the accuracy metric the paper reports.

    Args:
        y_true: Ground-truth targets; must be non-zero.
        y_pred: Predictions.

    Returns:
        ``100 * mean(|y_pred - y_true| / |y_true|)``.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    if np.any(y_true == 0):
        raise ValueError("MAPE is undefined for zero targets")
    return float(100.0 * np.mean(np.abs(y_pred - y_true) / np.abs(y_true)))
