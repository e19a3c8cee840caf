"""Figure 11: amortization of the initial profiling losses.

MPC needs one profiling invocation (run as PPK) before it can exploit
the extracted pattern; Figure 11 shows MPC's savings over PPK when the
application is re-executed 1, 10, and 100 times after that initial
execution, plus the steady state (no initial losses at all).

Because every post-profiling invocation is statistically identical, the
k-re-execution aggregate is computed from the measured first and
steady-state invocations:

    total(k) = first + k * steady        (MPC)
    total(k) = (k + 1) * ppk             (PPK)

Shape targets: non-negligible gains after a single re-execution, most
of the steady-state gain recovered by ten.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.sim.metrics import geomean, mean

__all__ = ["RE_EXECUTIONS", "fig11", "amortized_deltas"]

#: Re-execution counts shown in the paper's Figure 11.
RE_EXECUTIONS = (1, 10, 100)


def amortized_deltas(ctx: ExperimentContext, name: str,
                     re_executions: int) -> Dict[str, float]:
    """MPC-vs-PPK energy savings and speedup after k re-executions.

    Args:
        ctx: The shared experiment context.
        name: Benchmark name.
        re_executions: Number of invocations after the initial one; 0
            means the initial (profiling) invocation alone.

    Returns:
        ``{"energy_savings_pct": ..., "speedup": ...}``.
    """
    if re_executions < 0:
        raise ValueError("re_executions must be non-negative")
    first = ctx.mpc_first(name)
    steady = ctx.mpc(name)
    ppk = ctx.ppk(name)

    k = re_executions
    mpc_energy = first.energy_j + k * steady.energy_j
    mpc_time = first.total_time_s + k * steady.total_time_s
    ppk_energy = (k + 1) * ppk.energy_j
    ppk_time = (k + 1) * ppk.total_time_s
    return {
        "energy_savings_pct": 100.0 * (1.0 - mpc_energy / ppk_energy),
        "speedup": ppk_time / mpc_time,
    }


def steady_state_deltas(ctx: ExperimentContext, name: str) -> Dict[str, float]:
    """The ideal no-initial-loss case (steady-state invocation only)."""
    steady = ctx.mpc(name)
    ppk = ctx.ppk(name)
    return {
        "energy_savings_pct": 100.0 * (1.0 - steady.energy_j / ppk.energy_j),
        "speedup": ppk.total_time_s / steady.total_time_s,
    }


def fig11(ctx: ExperimentContext) -> ExperimentTable:
    """Reproduce Figure 11: MPC vs PPK over repeated executions."""
    table = ExperimentTable(
        experiment_id="Figure 11",
        title="MPC energy savings / speedup vs PPK after re-executing "
        "each benchmark the given number of times",
        headers=["Benchmark"]
        + [f"E% (x{k})" for k in RE_EXECUTIONS]
        + ["E% (steady)"]
        + [f"Speedup (x{k})" for k in RE_EXECUTIONS]
        + ["Speedup (steady)"],
    )
    for name in ctx.benchmark_names:
        savings = []
        speeds = []
        for k in RE_EXECUTIONS:
            deltas = amortized_deltas(ctx, name, k)
            savings.append(round(deltas["energy_savings_pct"], 2))
            speeds.append(round(deltas["speedup"], 3))
        steady = steady_state_deltas(ctx, name)
        table.add_row(
            name,
            *savings,
            round(steady["energy_savings_pct"], 2),
            *speeds,
            round(steady["speedup"], 3),
        )
    return table


def fig11_summary(ctx: ExperimentContext) -> Dict[int, Dict[str, float]]:
    """Across-benchmark aggregates per re-execution count."""
    out: Dict[int, Dict[str, float]] = {}
    for k in RE_EXECUTIONS:
        deltas = [amortized_deltas(ctx, n, k) for n in ctx.benchmark_names]
        out[k] = {
            "energy_savings_pct": mean(d["energy_savings_pct"] for d in deltas),
            "speedup": geomean(d["speedup"] for d in deltas),
        }
    return out
