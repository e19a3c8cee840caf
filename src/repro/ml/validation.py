"""Model-validation utilities: group-aware cross-validation.

The paper's accuracy numbers are *out-of-sample in the kernel
dimension*: the Random Forest is trained on one kernel corpus and
evaluated on the 15 benchmarks' kernels.  Plain row-wise splits would
leak — every kernel appears at 336 configurations, so a random split
puts the same kernel in both train and test.  This module provides the
group k-fold (grouped by kernel identity) needed to measure honest
generalization, plus a convenience cross-validation of the full
time/power predictor pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace, default_space
from repro.ml.dataset import build_dataset
from repro.ml.forest import RandomForestRegressor, mean_absolute_percentage_error
from repro.workloads.kernel import KernelSpec

__all__ = ["group_kfold", "CrossValidationResult", "cross_validate_predictor"]


def group_kfold(groups: Sequence[str], n_splits: int,
                seed: int = 0) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, test_idx) with whole groups held out.

    Args:
        groups: Group label per row (kernel identity).
        n_splits: Number of folds; each unique group lands in exactly
            one test fold.
        seed: Shuffling seed for group-to-fold assignment.

    Yields:
        Index arrays; every row appears in exactly one test fold and
        no group straddles the train/test boundary of any fold.
    """
    groups = np.asarray(groups)
    unique = np.unique(groups)
    if n_splits < 2:
        raise ValueError("need at least two folds")
    if n_splits > unique.size:
        raise ValueError(
            f"cannot make {n_splits} folds from {unique.size} groups"
        )
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(unique)
    folds = np.array_split(shuffled, n_splits)
    for fold in folds:
        mask = np.isin(groups, fold)
        yield np.where(~mask)[0], np.where(mask)[0]


@dataclass(frozen=True)
class CrossValidationResult:
    """Per-fold MAPEs of the time/power predictor.

    Attributes:
        time_mape_pct: Out-of-group time MAPE per fold.
        power_mape_pct: Out-of-group GPU-power MAPE per fold.
    """

    time_mape_pct: Tuple[float, ...]
    power_mape_pct: Tuple[float, ...]

    @property
    def mean_time_mape_pct(self) -> float:
        """Mean time MAPE across folds."""
        return float(np.mean(self.time_mape_pct))

    @property
    def mean_power_mape_pct(self) -> float:
        """Mean power MAPE across folds."""
        return float(np.mean(self.power_mape_pct))


def cross_validate_predictor(
    kernels: Sequence[KernelSpec],
    apu: Optional[APUModel] = None,
    space: Optional[ConfigSpace] = None,
    n_splits: int = 4,
    n_estimators: int = 8,
    max_depth: int = 12,
    seed: int = 0,
) -> CrossValidationResult:
    """Group k-fold cross-validation of the forest pipeline.

    Args:
        kernels: Kernel population to characterize and validate on.
        apu: Ground-truth hardware model.
        space: Configuration space to sweep.
        n_splits: Folds (grouped by kernel).
        n_estimators: Trees per fold (kept small: k folds retrain k
            times).
        max_depth: Tree depth per fold.
        seed: Seed for splits and forests.

    Returns:
        Per-fold out-of-group MAPEs for time and power.
    """
    apu = apu if apu is not None else APUModel()
    space = space if space is not None else default_space()
    dataset = build_dataset(kernels, apu=apu, space=space, seed=seed)

    time_mapes: List[float] = []
    power_mapes: List[float] = []
    for fold, (train, test) in enumerate(
        group_kfold(dataset.kernel_keys, n_splits, seed=seed)
    ):
        time_forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            max_features=0.6, seed=seed + fold,
        ).fit(dataset.X[train], dataset.log_time[train])
        power_forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            max_features=0.6, seed=seed + fold + 1000,
        ).fit(dataset.X[train], dataset.gpu_power[train])

        true_time = np.exp(dataset.log_time[test])
        pred_time = np.exp(time_forest.predict(dataset.X[test]))
        time_mapes.append(mean_absolute_percentage_error(true_time, pred_time))
        power_mapes.append(
            mean_absolute_percentage_error(
                dataset.gpu_power[test], power_forest.predict(dataset.X[test])
            )
        )

    return CrossValidationResult(
        time_mape_pct=tuple(time_mapes), power_mape_pct=tuple(power_mapes)
    )
