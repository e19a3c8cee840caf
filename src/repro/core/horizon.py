"""Adaptive prediction-horizon generator (Section IV-A4).

The horizon length H trades solution quality against optimizer
overhead: longer horizons see further but cost more model evaluations,
which is fatal for applications with short kernels (Spmv).  The paper
bounds the *total* performance penalty — MPC compute overhead plus the
losses of approximation — to a factor α of the baseline execution time
so far, and solves for the largest admissible H_i per kernel:

    H_i <= (N / N̄) * [ (1 + α - 1/i) * i * T_total/N
                        - Σ_{j<i} (T_j + T_MPC,j) ] / T_PPK

using the statistics gathered on the first (profiling) invocation:
N (kernel count), N̄ (average per-kernel search-order prefix length),
and T_PPK (total optimizer time of the profiling run).  H_i is floored
to an integer and clamped to [0, N]; H_i = 0 means "skip optimization
for this kernel" (the previous configuration is reused at no cost).

One refinement over the paper's printed formula: the baseline time "so
far" can be launch-weighted instead of the uniform ``i * T_total/N``.
Each position j is credited ``max(time_share_j, instruction_share_j)``
where ``time_share_j = T_total * t_j / Σ t`` is the share of time the
baseline spends on that launch (covers intrinsically slow,
low-throughput kernels) and ``instruction_share_j = I_j / target`` is
the time the throughput tracker itself would grant it (covers
high-throughput kernels that the optimizer legitimately slows to save
energy).  With the uniform approximation, either kind of non-uniformity
reads as overhead debt and pins the horizon to zero even though no real
performance was lost; the weighted form charges only genuine overruns
against alpha.  When no profiles are supplied the generator uses the
paper's uniform approximation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.obs import Instrumentation, or_noop
from repro.obs.tracing import LaunchNote

__all__ = ["AdaptiveHorizonGenerator"]


class AdaptiveHorizonGenerator:
    """Chooses the per-kernel horizon length H_i.

    Args:
        num_kernels: N, the application's launch count.
        mean_prefix_length: N̄, the average search-order prefix length.
        ppk_overhead_s: T_PPK, the total optimizer time of the
            profiling (PPK) invocation.
        baseline_total_time_s: T_total, the baseline (Turbo Core) total
            kernel time of the application.
        alpha: Bound on the total relative performance penalty
            (the paper uses 0.05).
        time_profile: Optional per-launch times from the profiling
            invocation; enables the launch-weighted baseline (see the
            module docstring).
        instruction_profile: Optional per-launch instruction counts;
            when given together with ``time_profile``, each launch is
            credited the larger of its time share and its
            throughput-tracker allowance.
        obs: Optional instrumentation, which registers the horizon
            series; a request handed a launch note writes the remaining
            overhead budget and the chosen length onto it, and
            :meth:`fold` counts them.
    """

    def __init__(
        self,
        num_kernels: int,
        mean_prefix_length: float,
        ppk_overhead_s: float,
        baseline_total_time_s: float,
        alpha: float = 0.05,
        time_profile: Optional[Sequence[float]] = None,
        instruction_profile: Optional[Sequence[float]] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if num_kernels < 1:
            raise ValueError("need at least one kernel")
        if mean_prefix_length <= 0:
            raise ValueError("mean prefix length must be positive")
        if ppk_overhead_s < 0 or baseline_total_time_s <= 0:
            raise ValueError("invalid profiling statistics")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.num_kernels = num_kernels
        self.mean_prefix_length = mean_prefix_length
        self.ppk_overhead_s = ppk_overhead_s
        self.baseline_total_time_s = baseline_total_time_s
        self.alpha = alpha
        self._baseline_cumulative: Optional[list] = None
        if time_profile is not None:
            if len(time_profile) != num_kernels:
                raise ValueError("time profile length must equal N")
            total = float(sum(time_profile))
            if total <= 0:
                raise ValueError("time profile must have positive total")
            time_shares = [
                baseline_total_time_s * t / total for t in time_profile
            ]
            if instruction_profile is not None:
                if len(instruction_profile) != num_kernels:
                    raise ValueError("instruction profile length must equal N")
                total_insts = float(sum(instruction_profile))
                if total_insts <= 0:
                    raise ValueError("instruction profile must be positive")
                insts_shares = [
                    baseline_total_time_s * i / total_insts
                    for i in instruction_profile
                ]
                shares = [max(t, i) for t, i in zip(time_shares, insts_shares)]
                # Renormalize: taking the max inflates the total above
                # T_total; scale back so the full-application budget is
                # still exactly (1 + alpha) * T_total.
                scale = baseline_total_time_s / sum(shares)
                shares = [s * scale for s in shares]
            else:
                shares = time_shares
            acc = 0.0
            cumulative = []
            for share in shares:
                acc += share
                cumulative.append(acc)
            self._baseline_cumulative = cumulative
        self.obs = or_noop(obs)
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "repro_horizon_requests_total", "Adaptive horizon computations"
        )
        self._m_zero = registry.counter(
            "repro_horizon_zero_total",
            "Horizon requests resolved to zero (no overhead budget)",
        )
        self._m_length = registry.histogram(
            "repro_horizon_length",
            "Chosen horizon lengths",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        self._elapsed_s = 0.0  # Σ (T_j + T_MPC,j) over completed kernels

    @property
    def elapsed_s(self) -> float:
        """Kernel time plus optimizer time accumulated so far."""
        return self._elapsed_s

    def record(self, kernel_time_s: float, mpc_overhead_s: float) -> None:
        """Account a completed kernel and its optimization overhead."""
        if kernel_time_s < 0 or mpc_overhead_s < 0:
            raise ValueError("times must be non-negative")
        self._elapsed_s += kernel_time_s + mpc_overhead_s

    def reset(self) -> None:
        """Clear accumulated state (a new run of the application)."""
        self._elapsed_s = 0.0

    def snapshot(self) -> dict:
        """Mutable state as a JSON-able dict.

        The frozen profiling statistics are constructor arguments and
        are recomputed on restore; only the elapsed-time accumulator
        migrates.
        """
        return {"elapsed_s": self._elapsed_s}

    def restore(self, payload: dict) -> None:
        """Rebuild mutable state from :meth:`snapshot` output."""
        self._elapsed_s = float(payload["elapsed_s"])

    def horizon(self, index: int, note: Optional[LaunchNote] = None) -> int:
        """H_i for the upcoming kernel.

        Args:
            index: Zero-based execution index of the upcoming kernel
                (the paper's i is ``index + 1``).
            note: The deciding launch's note, if live; the remaining
                budget and the chosen length are written onto it.  The
                computation itself is pure, so speculative callers (the
                batched prefetch hook) pass none and count nothing.

        Returns:
            The admissible horizon length, in [0, N].
        """
        if index < 0:
            raise ValueError("index must be non-negative")
        i = index + 1
        n = self.num_kernels

        if self.ppk_overhead_s == 0.0:
            return n  # free optimizer: always use the full horizon

        if self._baseline_cumulative is not None and index < n:
            allowed = self._baseline_cumulative[index]
            previous = self._baseline_cumulative[index - 1] if index > 0 else 0.0
            current_share = allowed - previous
            budget = (1.0 + self.alpha) * allowed - current_share - self._elapsed_s
        else:
            per_kernel_baseline = self.baseline_total_time_s / n
            budget = (
                (1.0 + self.alpha - 1.0 / i) * i * per_kernel_baseline
                - self._elapsed_s
            )
        h = (n / self.mean_prefix_length) * budget / self.ppk_overhead_s
        if not math.isfinite(h):
            return n
        horizon = int(min(n, max(0.0, math.floor(h))))
        if note is not None:
            note.attributes["horizon_budget_s"] = budget
            note.horizon = horizon
        return horizon

    def fold(self, note: LaunchNote) -> None:
        """Count the horizon request a launch's note carries.

        Writes the ``repro_horizon_*`` series under the registry lock
        the caller (the hosting session's launch fold) holds.
        """
        self._m_requests.add(())
        if note.horizon <= 0:
            self._m_zero.add(())
        self._m_length.add((), note.horizon)
