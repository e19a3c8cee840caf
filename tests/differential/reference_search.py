"""Per-configuration reference search: the oracle the shipping core is checked against.

The shipping :class:`~repro.core.optimizer.GreedyHillClimbOptimizer`
sweeps each kernel's whole lattice with one columnar predictor call and
walks it by flat :class:`~repro.hardware.table.ConfigTable` index, with a
per-search memo in between.  This module writes the same greedy search
the plain way — :class:`~repro.hardware.config.HardwareConfig` values,
:meth:`ConfigSpace.step <repro.hardware.config.ConfigSpace.step>` moves,
and one ground-truth ``apu.execute`` per candidate configuration — and
shares no fetch, memo, table-index, or matrix code with it beyond the
ground-truth model both read (which
:mod:`.test_ground_truth_reference` pins on its own).  Replaying a
trace stamped by the shipping core under this reference, with checking
on, therefore tests the columnar machinery against an independent
implementation of the paper's algorithm.

Nothing in ``src/`` knows about it: :func:`install_reference` swaps it in
with pytest's ``monkeypatch`` at the three places policies are built
(``repro.core.manager`` and ``repro.core.policies`` for the search,
``repro.workloads.traces.replay`` for the oracle).  The reference oracle
refuses columnar queries, so a site the patch missed fails loudly
instead of silently comparing the shipping core with itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import repro.core.manager
import repro.core.policies
import repro.workloads.traces.replay
from repro.core.optimizer import OptimizationResult
from repro.core.pattern import KernelRecord
from repro.core.tracker import PerformanceTracker
from repro.hardware.config import FAILSAFE_CONFIG, ConfigSpace, HardwareConfig, Knob
from repro.ml.predictors import KernelEstimate, OraclePredictor
from repro.workloads.counters import CounterVector

__all__ = ["ReferenceOracle", "ReferenceSearch", "install_reference"]


class ReferenceOracle(OraclePredictor):
    """An oracle that answers one configuration at a time.

    Attributes:
        answered: Configurations answered so far (proves the reference
            actually ran).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.answered = 0

    def answer(self, counters: CounterVector, config: HardwareConfig) -> KernelEstimate:
        """Ground truth for the resolved kernel at ``config``."""
        self.answered += 1
        measurement = self.apu.execute(self.resolve(counters), config)
        return KernelEstimate(
            time_s=measurement.time_s,
            gpu_power_w=measurement.gpu_power_w,
            cpu_power_w=measurement.cpu_power_w,
        )

    def estimate_matrix_many(self, counters_list, table, indices=None):
        raise AssertionError("the reference oracle answers one configuration at a time")


class ReferenceSearch:
    """The greedy hill climb and search-order window, one query per candidate.

    Takes :class:`~repro.core.optimizer.GreedyHillClimbOptimizer`'s
    constructor arguments; ``predictor`` must be a
    :class:`ReferenceOracle`.
    """

    def __init__(self, space: ConfigSpace, predictor: ReferenceOracle,
                 fail_safe: HardwareConfig = FAILSAFE_CONFIG,
                 max_passes: int = 3, obs=None) -> None:
        self.space = space
        self.predictor = predictor
        self.fail_safe = space.clamp(fail_safe)
        self.max_passes = max_passes

    def optimize_kernel(self, record: KernelRecord,
                        tracker: PerformanceTracker) -> OptimizationResult:
        space = self.space
        evals = 0

        def query(config: HardwareConfig) -> KernelEstimate:
            nonlocal evals
            evals += 1
            return self.predictor.answer(record.counters, config)

        def feasible(est: KernelEstimate) -> bool:
            return tracker.admits(record.instructions, est.time_s)

        current, current_est = self.fail_safe, query(self.fail_safe)

        # Sensitivity: |ΔE| between each knob's axis ends, per step.
        sensitivities: List[Tuple[float, str]] = []
        for knob in Knob.ALL:
            axis = space.axis(knob)
            if len(axis) < 2:
                continue
            low = query(current.replace(**{knob: axis[0]}))
            high = query(current.replace(**{knob: axis[-1]}))
            sensitivities.append((abs(high.energy_j - low.energy_j) / (len(axis) - 1), knob))
        sensitivities.sort(key=lambda item: -item[0])

        best: Optional[Tuple[HardwareConfig, KernelEstimate]] = (
            (current, current_est) if feasible(current_est) else None
        )
        for _ in range(self.max_passes):
            moved = False
            for _, knob in sensitivities:
                neighbours = []
                for direction in (-1, +1):
                    config = space.step(current, knob, direction)
                    if config is not None:
                        neighbours.append((direction, config, query(config)))
                chosen = None
                best_gain = 1e-12
                for neighbour in neighbours:
                    gain = current_est.energy_j - neighbour[2].energy_j
                    if feasible(neighbour[2]) and gain > best_gain:
                        best_gain, chosen = gain, neighbour
                if chosen is None:
                    # Still infeasible: take any feasible neighbour.
                    if best is None:
                        for _, config, est in neighbours:
                            if feasible(est):
                                current, current_est = config, est
                                best = (current, current_est)
                                moved = True
                                break
                    continue
                direction, current, current_est = chosen
                best = (current, current_est)
                moved = True
                # Climb on until energy stops falling or feasibility ends.
                while True:
                    config = space.step(current, knob, direction)
                    if config is None:
                        break
                    est = query(config)
                    if not feasible(est) or est.energy_j >= current_est.energy_j:
                        break
                    current, current_est = config, est
                    best = (current, current_est)
            if not moved:
                break

        if best is None:
            return OptimizationResult(
                config=self.fail_safe, estimate=query(self.fail_safe),
                evaluations=evals, fail_safe=True,
            )
        return OptimizationResult(
            config=best[0], estimate=best[1], evaluations=evals, fail_safe=False,
        )

    def optimize_window(self, window: Sequence[KernelRecord],
                        tracker: PerformanceTracker,
                        reserved: Sequence[KernelRecord] = (),
                        reserve_window: bool = True) -> OptimizationResult:
        speculative = tracker.copy()
        evals = 0
        # Everything not yet committed is held at its fail-safe estimate.
        pending = {}
        reserve_time = 0.0
        reserve_insts = 0.0
        for record in (list(window[:-1]) + list(reserved)) if reserve_window else []:
            time_s = self.predictor.answer(record.counters, self.fail_safe).time_s
            evals += 1
            pending[id(record)] = (record.instructions, time_s)
            reserve_time += time_s
            reserve_insts += record.instructions
        speculative.update(reserve_insts, reserve_time)

        for record in window:
            if id(record) in pending:
                insts, time_s = pending.pop(id(record))
                speculative.adjust(-insts, -time_s)
            result = self.optimize_kernel(record, speculative)
            evals += result.evaluations
            speculative.update(record.instructions, result.estimate.time_s)
        return OptimizationResult(
            config=result.config, estimate=result.estimate,
            evaluations=evals, fail_safe=result.fail_safe,
        )


def install_reference(monkeypatch) -> List[ReferenceOracle]:
    """Build every MPC/PPK policy on the reference for the rest of the test.

    Returns:
        The oracles created from here on, in creation order.
    """
    oracles: List[ReferenceOracle] = []

    def make_oracle(*args, **kwargs) -> ReferenceOracle:
        oracles.append(ReferenceOracle(*args, **kwargs))
        return oracles[-1]

    monkeypatch.setattr(repro.core.manager, "GreedyHillClimbOptimizer", ReferenceSearch)
    monkeypatch.setattr(repro.core.policies, "GreedyHillClimbOptimizer", ReferenceSearch)
    monkeypatch.setattr(repro.workloads.traces.replay, "OraclePredictor", make_oracle)
    return oracles
