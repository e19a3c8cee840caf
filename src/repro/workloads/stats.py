"""Corpus statistics over benchmark collections.

The paper characterizes its corpus before sampling the evaluation set:
"Within the 73 benchmarks we studied, we found that 75% are irregular
and 44% of the kernels varied significantly with input" (Section V-A).
This module computes the same statistics over any collection of
:class:`~repro.workloads.app.Application` objects, so the reproduction's
combined corpus (evaluation + extended) can be checked against the
paper's distribution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.workloads.app import Application, Category

__all__ = ["CorpusStats", "corpus_stats"]


@dataclass(frozen=True)
class CorpusStats:
    """Aggregate statistics of a benchmark collection.

    Attributes:
        num_benchmarks: Collection size.
        irregular_fraction: Share of benchmarks in any irregular
            category (the paper reports 75%).
        input_varying_fraction: Share of benchmarks whose kernels vary
            with input (the paper reports 44% of kernels; we report the
            benchmark-level share).
        category_counts: Benchmarks per Table-IV category.
        scaling_class_counts: Kernel launches per scaling class.
        mean_launches: Mean kernel launches per benchmark.
        mean_unique_kernels: Mean distinct kernels per benchmark.
    """

    num_benchmarks: int
    irregular_fraction: float
    input_varying_fraction: float
    category_counts: Dict[str, int]
    scaling_class_counts: Dict[str, int]
    mean_launches: float
    mean_unique_kernels: float


def corpus_stats(apps: Sequence[Application]) -> CorpusStats:
    """Compute corpus statistics for a benchmark collection.

    Args:
        apps: The benchmarks to characterize.

    Returns:
        The aggregate statistics.

    Raises:
        ValueError: If the collection is empty.
    """
    if not apps:
        raise ValueError("corpus must contain at least one benchmark")

    categories: Counter = Counter(app.category.value for app in apps)
    classes: Counter = Counter()
    launches = 0
    unique = 0
    irregular = 0
    input_varying = 0
    for app in apps:
        if app.category is not Category.REGULAR:
            irregular += 1
        if app.category is Category.IRREGULAR_INPUT_VARYING:
            input_varying += 1
        launches += len(app)
        unique += len(app.unique_kernels)
        for spec in app.kernels:
            classes[spec.scaling_class.value] += 1

    n = len(apps)
    return CorpusStats(
        num_benchmarks=n,
        irregular_fraction=irregular / n,
        input_varying_fraction=input_varying / n,
        category_counts=dict(categories),
        scaling_class_counts=dict(classes),
        mean_launches=launches / n,
        mean_unique_kernels=unique / n,
    )
