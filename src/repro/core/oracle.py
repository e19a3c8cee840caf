"""The Theoretically Optimal (TO) scheme (Sections II-E, VI-C).

TO assigns each kernel launch the configuration that minimizes total
application energy subject to no performance loss versus the baseline:

    min Σ E_i(s_i)   s.t.   Σ T_i(s_i) <= T_budget

with perfect knowledge of every kernel's behaviour at every
configuration and no runtime overhead.  The paper implements it as an
exhaustive search (exponential, hence impractical online); here we
exploit the problem's structure — it is a multiple-choice knapsack over
per-launch configuration menus — and solve it with a Lagrangian
relaxation plus a greedy repair/improvement pass, which is exact up to
one kernel's discretization gap and empirically matches exhaustive
search on small instances (see the tests), and never costs more than
the best feasible single configuration for every kernel.

Launches of the same (kernel, input) are interchangeable in both
objective and constraint, so decisions are made per *unique* kernel
with multiplicity weights, which keeps the solve to milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace, HardwareConfig, default_space
from repro.hardware.table import ConfigTable
from repro.workloads.app import Application

__all__ = ["OptimalPlan", "solve_theoretically_optimal"]

#: Bisection steps on the Lagrange multiplier.
LAMBDA_ITERATIONS = 60


@dataclass(frozen=True)
class OptimalPlan:
    """Solution of the theoretically-optimal planning problem.

    Attributes:
        configs: Chosen configuration per launch, in execution order.
        total_time_s: Planned total kernel time.
        total_energy_j: Planned total chip energy.
        time_budget_s: The constraint's right-hand side.
    """

    configs: Tuple[HardwareConfig, ...]
    total_time_s: float
    total_energy_j: float
    time_budget_s: float

    @property
    def feasible(self) -> bool:
        """Whether the plan respects the time budget."""
        return self.total_time_s <= self.time_budget_s * (1.0 + 1e-12)


def _menus(
    app: Application, apu: APUModel, space: ConfigSpace
) -> Tuple[List[str], Dict[str, Tuple[List[float], List[float]]], Dict[str, int]]:
    """Per-unique-kernel (time, energy) menus and launch multiplicities.

    Each menu is one columnar ground-truth evaluation over the whole
    lattice, in ``all_configs`` order; each row holds the floats
    ``apu.execute`` returns for that configuration.
    """
    table = ConfigTable(space)
    keys: List[str] = []
    menus: Dict[str, Tuple[List[float], List[float]]] = {}
    counts: Dict[str, int] = {}
    for spec in app.kernels:
        counts[spec.key] = counts.get(spec.key, 0) + 1
    for spec in app.unique_kernels:
        matrix = apu.execute_matrix(spec, table)
        menus[spec.key] = (matrix.times_s.tolist(), matrix.energy_j.tolist())
        keys.append(spec.key)
    return keys, menus, counts


def _pick(menu: Tuple[List[float], List[float]], lam: float) -> int:
    """Index minimizing E + lam * T on one kernel's menu."""
    times, energies = menu
    best, best_cost = 0, math.inf
    for idx in range(len(times)):
        cost = energies[idx] + lam * times[idx]
        if cost < best_cost:
            best_cost = cost
            best = idx
    return best


def solve_theoretically_optimal(
    app: Application,
    apu: APUModel,
    target_throughput: float,
    space: Optional[ConfigSpace] = None,
) -> OptimalPlan:
    """Solve TO for one application.

    Args:
        app: The application to plan.
        apu: Ground-truth hardware model (perfect knowledge).
        target_throughput: Baseline throughput that must be matched;
            the time budget is ``I_total / target``.
        space: Configuration space; defaults to the full 336 points.

    Returns:
        The planned per-launch configurations and their totals.
    """
    space = space if space is not None else default_space()
    keys, menus, counts = _menus(app, apu, space)
    budget = app.total_instructions / target_throughput
    configs = space.all_configs()

    def totals(choice: Dict[str, int]) -> Tuple[float, float]:
        time_s = sum(menus[k][0][choice[k]] * counts[k] for k in keys)
        energy = sum(menus[k][1][choice[k]] * counts[k] for k in keys)
        return time_s, energy

    # Unconstrained optimum: pure energy minimization.
    choice = {k: min(range(len(configs)), key=lambda i: menus[k][1][i]) for k in keys}
    time_s, _ = totals(choice)
    if time_s > budget:
        # Bisection on the Lagrange multiplier: larger lambda weights
        # time more heavily, shrinking total time monotonically.
        lo, hi = 0.0, 1.0
        def choice_at(lam: float) -> Dict[str, int]:
            return {k: _pick(menus[k], lam) for k in keys}
        while totals(choice_at(hi))[0] > budget and hi < 1e12:
            hi *= 4.0
        for _ in range(LAMBDA_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if totals(choice_at(mid))[0] > budget:
                lo = mid
            else:
                hi = mid
        choice = choice_at(hi)
        time_s, _ = totals(choice)
        if time_s > budget:
            # Even the fastest assignment misses the budget; fall back
            # to per-kernel fastest configurations.
            choice = {
                k: min(range(len(configs)), key=lambda i: menus[k][0][i])
                for k in keys
            }

    # Greedy improvement: spend remaining slack on the per-step move
    # with the best energy saving per unit of extra time, considering
    # every alternative configuration of every kernel.
    improved = True
    while improved:
        improved = False
        time_s, energy = totals(choice)
        slack = budget - time_s
        best_move: Optional[Tuple[str, int]] = None
        best_rate = 0.0
        for k in keys:
            times, energies = menus[k]
            cur = choice[k]
            for idx in range(len(times)):
                d_time = (times[idx] - times[cur]) * counts[k]
                d_energy = (energies[idx] - energies[cur]) * counts[k]
                if d_energy >= 0:
                    continue
                if d_time <= 0:
                    rate = math.inf  # strictly better: less energy, no slower
                elif d_time <= slack:
                    rate = -d_energy / d_time
                else:
                    continue
                if rate > best_rate:
                    best_rate = rate
                    best_move = (k, idx)
        if best_move is not None:
            choice[best_move[0]] = best_move[1]
            improved = True

    # The relaxation and greedy pass are exact only up to one kernel's
    # discretization gap, so one configuration for every kernel can
    # still cost less; take the best feasible one when it is strictly
    # cheaper (a tie keeps the plan).
    _, energy = totals(choice)
    for idx in range(len(configs)):
        uniform = dict.fromkeys(keys, idx)
        uniform_time, uniform_energy = totals(uniform)
        if uniform_time <= budget and uniform_energy < energy:
            choice, energy = uniform, uniform_energy

    plan = tuple(configs[choice[spec.key]] for spec in app.kernels)
    time_s, energy = totals(choice)
    return OptimalPlan(
        configs=plan,
        total_time_s=time_s,
        total_energy_j=energy,
        time_budget_s=budget,
    )
