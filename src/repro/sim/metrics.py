"""Comparison metrics between policy runs.

All of the paper's evaluation numbers are relative: energy savings and
speedup of one policy's run over another's (usually over AMD Turbo
Core).  Performance comparisons include optimizer overheads; energy
comparisons are reported chip-wide and GPU-only, matching Figures 8-10.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.sim.trace import RunResult

__all__ = [
    "energy_savings_pct",
    "gpu_energy_savings_pct",
    "cpu_energy_savings_pct",
    "speedup",
    "performance_loss_pct",
    "geomean",
    "mean",
]


def _check_comparable(run: RunResult, reference: RunResult) -> None:
    if run.app_name != reference.app_name:
        raise ValueError(
            f"comparing different applications: {run.app_name!r} vs "
            f"{reference.app_name!r}"
        )


def energy_savings_pct(run: RunResult, reference: RunResult) -> float:
    """Chip-wide energy saved by ``run`` relative to ``reference`` (%)."""
    _check_comparable(run, reference)
    return 100.0 * (1.0 - run.energy_j / reference.energy_j)


def gpu_energy_savings_pct(run: RunResult, reference: RunResult) -> float:
    """GPU-rail energy saved (%), including idle leakage overheads."""
    _check_comparable(run, reference)
    return 100.0 * (1.0 - run.gpu_energy_j / reference.gpu_energy_j)


def cpu_energy_savings_pct(run: RunResult, reference: RunResult) -> float:
    """CPU-plane energy saved (%)."""
    _check_comparable(run, reference)
    return 100.0 * (1.0 - run.cpu_energy_j / reference.cpu_energy_j)


def speedup(run: RunResult, reference: RunResult) -> float:
    """Speedup of ``run`` over ``reference`` including overheads.

    Values below 1.0 are a performance loss.
    """
    _check_comparable(run, reference)
    return reference.total_time_s / run.total_time_s


def performance_loss_pct(run: RunResult, reference: RunResult) -> float:
    """Performance lost by ``run`` vs ``reference`` (%); negative = gain."""
    return 100.0 * (1.0 - speedup(run, reference))


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; appropriate for speedup ratios."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; appropriate for savings percentages."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
