"""Greedy hill-climbing optimizer and the MPC window optimization.

The paper replaces exhaustive configuration search with two nested
approximations (Section IV-A1):

* **Greedy hill climbing over knobs.**  For one kernel, the optimizer
  ranks the four hardware knobs by predicted energy sensitivity and
  climbs each knob's axis — most sensitive first — as long as predicted
  energy keeps decreasing and the performance target stays met.  This
  cuts the per-kernel evaluations from ``|cpu| x |nb| x |gpu| x |cu|``
  (336) to roughly ``|cpu| + |nb| + |gpu| + |cu|`` (18), the paper's
  "factor of 19x".
* **Search-order window optimization.**  A window of future kernels is
  optimized in the fixed search order, each kernel consuming or
  contributing execution-time headroom, and the configuration chosen
  when the *current* kernel's turn comes (last in the window) is the one
  applied.

If no configuration meets the performance requirement the optimizer
falls back to the fail-safe configuration [P7, NB2, DPM4, 8 CUs].
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.pattern import KernelRecord
from repro.core.tracker import PerformanceTracker
from repro.hardware.config import FAILSAFE_CONFIG, ConfigSpace, HardwareConfig
from repro.hardware.table import lattice_table
from repro.ml.predictors import KernelEstimate, PerfPowerPredictor
from repro.obs import Instrumentation, or_noop
from repro.workloads.counters import CounterVector

__all__ = [
    "MAX_PASSES", "SWEEP_POOL_SIZE", "OptimizationResult", "PartialSweep",
    "GreedyHillClimbOptimizer",
]

#: Bound on whole sensitivity-order sweeps of the hill climb, which
#: keeps each search's evaluation count small and predictable.
MAX_PASSES = 3

#: Sweeps a sweep pool keeps: the most recently started ones.
SWEEP_POOL_SIZE = 64

#: Memoized per-knob span-attribute keys ("climb_steps.<knob>"), so the
#: per-search telemetry does not rebuild the strings on every decision.
_CLIMB_STEP_KEYS: Dict[str, str] = {}


def _climb_step_key(knob: str) -> str:
    key = _CLIMB_STEP_KEYS.get(knob)
    if key is None:
        key = _CLIMB_STEP_KEYS[knob] = f"climb_steps.{knob}"
    return key


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing one kernel.

    Attributes:
        config: The chosen hardware configuration.
        estimate: Predicted behaviour at that configuration.
        evaluations: Predictor queries spent.
        fail_safe: Whether the fail-safe fallback was taken.
    """

    config: HardwareConfig
    estimate: KernelEstimate
    evaluations: int
    fail_safe: bool


class PartialSweep:
    """One counter vector's whole-lattice sweep, computed a cross at a time.

    Four plain-float columns cover every row of the optimizer's table,
    ``None`` in rows not computed yet; only
    :meth:`GreedyHillClimbOptimizer._fill` computes rows.  ``energy_j``
    is the predictor batch's energy column, the same IEEE operations as
    :attr:`KernelEstimate.energy_j`.  The sweep keeps its own copy of
    the counter values, never the vector object it is cached under: a
    ``WeakKeyDictionary`` value that references its key keeps that key
    alive forever.  The copy is the sweep's key in a sweep pool.

    Attributes:
        counters: A copy of the swept counter values.
        times_s / gpu_power_w / cpu_power_w / energy_j: Estimate columns.
    """

    __slots__ = ("counters", "times_s", "gpu_power_w", "cpu_power_w", "energy_j")

    def __init__(self, counters: CounterVector, rows: int) -> None:
        self.counters = CounterVector(**vars(counters))
        self.times_s: List[Optional[float]] = [None] * rows
        self.gpu_power_w: List[Optional[float]] = [None] * rows
        self.cpu_power_w: List[Optional[float]] = [None] * rows
        self.energy_j: List[Optional[float]] = [None] * rows

    def estimate(self, i: int) -> KernelEstimate:
        """The scalar :class:`KernelEstimate` of a computed row."""
        return KernelEstimate(
            time_s=self.times_s[i],
            gpu_power_w=self.gpu_power_w[i],
            cpu_power_w=self.cpu_power_w[i],
        )


class GreedyHillClimbOptimizer:
    """Energy-minimizing configuration search for single kernels/windows.

    The search runs on the columnar decision core: candidate
    configurations are flat :class:`~repro.hardware.table.ConfigTable`
    indices, knob moves are stride arithmetic, and every probe and
    climb step reads a row of one :class:`PartialSweep` of the kernel's
    counters.  Sweeps come from :meth:`sweep_many`, which caches one per
    counter vector object for as long as that object lives, so a vector
    that recurs across windows and decisions is swept once; behind that
    cache sits the sweep :attr:`pool`, keyed by counter value, which a
    :class:`~repro.runtime.manager.SessionManager` shares among the
    sessions it hosts on one predictor and lattice.  A sweep
    computes only the rows searches read, one cross at a time (the rows
    within one knob move of a configuration): a new sweep starts with
    the cross through the fail-safe, where every climb starts and
    probes, and a read of a row not computed yet computes the rest of
    the cross through that row.  The climb itself compares plain
    floats: rows are read from the sweep's lists and knob moves from
    the table's shared :class:`~repro.hardware.table.MoveTable`
    (:meth:`ConfigTable.moves`), and only the returned row becomes a
    :class:`KernelEstimate`.  Chosen
    configurations, estimate floats, and evaluation counts are
    identical to a per-configuration search — ``tests/differential/``
    replays every scenario family against such a reference, and the
    golden-result suite depends on that.

    Args:
        space: The searchable configuration space.
        predictor: Performance/power model used for all estimates.
        obs: Optional instrumentation; searches accumulate hill-climb
            step counts and matrix-path batch statistics onto the
            current trace span and emit registry counters.  Defaults to
            the shared no-op.

    When the performance target cannot be met the search falls back to
    :data:`~repro.hardware.config.FAILSAFE_CONFIG`, clamped onto
    ``space`` (:attr:`fail_safe`).
    """

    def __init__(self, space: ConfigSpace, predictor: PerfPowerPredictor,
                 obs: Optional[Instrumentation] = None) -> None:
        self.space = space
        self.predictor = predictor
        self.fail_safe = space.clamp(FAILSAFE_CONFIG)
        self.obs = or_noop(obs)
        # Pre-bound series handles for the per-search telemetry: the
        # registry lookup + label canonicalization happen once here
        # instead of on every search (no-ops under NOOP obs).
        registry = self.obs.registry
        self._m_searches = registry.counter(
            "repro_optimizer_searches_total", "Greedy hill-climb searches run"
        ).labelled()
        self._m_evaluations = registry.counter(
            "repro_optimizer_evaluations_total",
            "Predictor queries spent inside hill-climb searches",
        ).labelled()
        self._m_climb_steps = registry.counter(
            "repro_optimizer_climb_steps_total",
            "Accepted hill-climb moves by knob",
        )
        self._m_climb_by_knob: Dict[str, Any] = {}
        self._m_memo_hits = registry.counter(
            "repro_optimizer_memo_hits_total",
            "Predictor requests served from the per-search memo",
        ).labelled()
        self._m_sweeps = registry.counter(
            "repro_optimizer_sweeps_total",
            "Whole-lattice sweeps an optimizer had to obtain (vectors "
            "it held no sweep for)",
        ).labelled()
        self._m_lock = registry.lock
        self.table = lattice_table(space)
        self._fail_safe_index = self.table.index_of_config(self.fail_safe)
        self._fail_safe_cross = np.array(
            self.table.moves().cross[self._fail_safe_index], dtype=np.intp
        )
        # Sweeps by counter vector.  Weakly keyed: the pattern extractor
        # gives a kernel a new vector object each time it runs, so an
        # entry dies with the last record that could ask for it, and the
        # cache needs no size bound.
        self._sweeps: weakref.WeakKeyDictionary[CounterVector, PartialSweep] = (
            weakref.WeakKeyDictionary()
        )
        #: Sweeps by counter value, the :data:`SWEEP_POOL_SIZE` most
        #: recently started, read when this optimizer's own cache
        #: misses: the pool ``SessionManager.add_session`` hands over,
        #: shared by the manager's sessions on this predictor and
        #: lattice.  ``None`` for an optimizer no manager hosts, which
        #: keeps only its own cache.
        self.pool: Optional[Dict[CounterVector, PartialSweep]] = None

    def missing(self, counters_list: Iterable[CounterVector]) -> List[CounterVector]:
        """Distinct vectors of ``counters_list`` with no held sweep, in order."""
        held = self._sweeps
        return [c for c in dict.fromkeys(counters_list) if c not in held]

    def sweep_many(self, counters_list: Sequence[CounterVector]) -> List[PartialSweep]:
        """One sweep per counter vector, in order.

        Every sweep the hill climb and the window search read comes
        from here.  Vectors this optimizer already holds are served
        from its cache; the others are taken from the :attr:`pool`
        (one value-keyed lookup each) or else started by
        :meth:`start_sweeps` in one stacked call, and cached under the
        caller's own vector objects.  Estimates are pure functions of
        (counters, lattice, predictor), so a held sweep never goes
        stale, and optimizers that share a predictor and lattice may
        share sweeps.  No evaluations are charged here — charging
        happens when a search consumes rows.
        """
        held = self._sweeps
        sweeps = [held.get(c) for c in counters_list]
        if None not in sweeps:
            return sweeps
        misses = self.missing(counters_list)
        pool = self.pool
        found = dict.fromkeys(misses) if pool is None else {c: pool.get(c) for c in misses}
        compute = [c for c, sweep in found.items() if sweep is None]
        if compute:
            found.update(zip(compute, self.start_sweeps(compute)))
        for counters, sweep in found.items():
            held[counters] = sweep
        if self.obs.enabled:
            self._m_sweeps.inc(len(misses))
        return [held[c] for c in counters_list]

    def start_sweeps(self, counters_list: Sequence[CounterVector]) -> List[PartialSweep]:
        """New sweeps of ``counters_list``, each computed at the fail-safe cross.

        One stacked predictor call for all of them.  Each new sweep
        enters the :attr:`pool`, if any, which then drops its oldest
        entries beyond :data:`SWEEP_POOL_SIZE`; :meth:`sweep_many`
        caches what its caller reads.
        """
        sweeps = [PartialSweep(c, len(self.table)) for c in counters_list]
        self._fill(sweeps, self._fail_safe_cross)
        pool = self.pool
        if pool is not None:
            for sweep in sweeps:
                pool[sweep.counters] = sweep
            for _ in range(len(pool) - SWEEP_POOL_SIZE):
                del pool[next(iter(pool))]
        return sweeps

    def _fill(self, sweeps: Sequence[PartialSweep], rows: np.ndarray) -> None:
        """Compute ``rows`` of every sweep in one predictor call.

        The only place sweeps gain rows, whether a new sweep's fail-safe
        cross or the rest of a cross a search reads into.  Rows are
        stored only once the predictor has answered, so a failed call
        leaves every sweep as it was.
        """
        batches = self.predictor.estimate_matrix_many(
            [sweep.counters for sweep in sweeps], self.table, rows
        )
        positions = rows.tolist()
        for sweep, batch in zip(sweeps, batches):
            times, gpu, cpu, energy = (
                sweep.times_s, sweep.gpu_power_w, sweep.cpu_power_w, sweep.energy_j
            )
            for i, t, g, c, e in zip(
                positions,
                batch.times_s.tolist(),
                batch.gpu_power_w.tolist(),
                batch.cpu_power_w.tolist(),
                batch.energy_j.tolist(),
            ):
                times[i], gpu[i], cpu[i], energy[i] = t, g, c, e

    def _fill_missing(self, sweep: PartialSweep, rows: Sequence[int]) -> None:
        """Compute, in one call, the rows of ``rows`` a sweep lacks."""
        times = sweep.times_s
        self._fill(
            (sweep,),
            np.array([row for row in rows if times[row] is None], dtype=np.intp),
        )

    # ----- single kernel -------------------------------------------------------

    def optimize_kernel(self, record: KernelRecord,
                        tracker: PerformanceTracker) -> OptimizationResult:
        """Find a low-energy configuration meeting the throughput target.

        Args:
            record: Stored knowledge of the kernel (counters and
                expected instruction count).
            tracker: Throughput state; Equation 5's headroom is derived
                from it.  Not modified.

        Returns:
            The optimization outcome, including the evaluation count
            that the simulator converts into overhead.
        """
        # The whole search runs on flat table indices and plain floats;
        # a configuration and an estimate are built only for the
        # returned row.  The dozens of tiny probe/climb requests a
        # search makes all become row reads of one sweep, which computes
        # a cross of rows the first time one of them is read; per-row
        # model evaluation is independent, so each row is float-for-float
        # what a query for that one configuration returns.  Every
        # request charges one evaluation whether the row was read before
        # in this search or not — the search's modelled cost is its
        # per-configuration budget.
        moves = self.table.moves()
        [sweep] = self.sweep_many((record.counters,))
        times, energies = sweep.times_s, sweep.energy_j

        # Rank knobs by predicted energy sensitivity: |ΔE| across the
        # knob's full axis, per configuration step.  The fail-safe row
        # and the endpoint probes lie on the fail-safe cross, which
        # every sweep starts with.
        current = self._fail_safe_index
        probes = moves.probes[current]
        evals = 1 + len(probes)
        # Rows this search has read: a repeated request is a memo hit.
        seen: Set[int] = {current, *probes}
        sensitivities: List[Tuple[float, str, int]] = []
        for n, (knob, position, span) in enumerate(moves.probe_knobs):
            low, high = probes[2 * n], probes[2 * n + 1]
            delta = abs(energies[high] - energies[low]) / span
            sensitivities.append((delta, knob, position))
        sensitivities.sort(key=lambda item: -item[0])

        # Equation 4: a row is feasible when its time fits the headroom.
        headroom = tracker.headroom_s(record.instructions)
        # Every move lands on a feasible row, so once one is found the
        # current row is the best feasible one so far.
        found = times[current] <= headroom
        climb_steps: Dict[str, int] = {}
        steps, neighbours = moves.steps, moves.neighbours

        # Sweep the knobs in sensitivity order; repeat the sweep until a
        # whole pass makes no move (knobs interact — e.g. a lower NB
        # state only pays off after the GPU clock moves), at most
        # MAX_PASSES times.
        for _ in range(MAX_PASSES):
            moved = False
            for _, knob, position in sensitivities:
                # Pick the climb side: the feasible neighbour, down
                # (side 0) or up (side 1), with the larger energy
                # reduction.
                options = neighbours[current][position]
                for _, index in options:
                    seen.add(index)
                    if times[index] is None:
                        self._fill_missing(sweep, moves.cross[index])
                evals += len(options)
                energy = energies[current]
                side = -1
                best_gain = 1e-12
                for option_side, index in options:
                    if times[index] <= headroom and energy - energies[index] > best_gain:
                        best_gain = energy - energies[index]
                        side, chosen = option_side, index
                if side < 0:
                    # No energy-reducing feasible neighbour; but if we
                    # are still infeasible, move toward feasibility.
                    if not found:
                        for _, index in options:
                            if times[index] <= headroom:
                                current = index
                                found = moved = True
                                climb_steps[knob] = climb_steps.get(knob, 0) + 1
                                break
                    continue

                current = chosen
                found = moved = True
                climb_steps[knob] = climb_steps.get(knob, 0) + 1
                # Keep climbing until the energy increases (paper: "the
                # search stops once the energy increases") or we fall
                # off the axis or out of feasibility.
                while True:
                    index = steps[current][position][side]
                    if index is None:
                        break
                    seen.add(index)
                    if times[index] is None:
                        self._fill_missing(sweep, moves.cross[index])
                    evals += 1
                    if not times[index] <= headroom or energies[index] >= energies[current]:
                        break
                    current = index
                    climb_steps[knob] = climb_steps.get(knob, 0) + 1
            if not moved:
                break

        if not found:
            # The fail-safe row is requested once more for the result.
            evals += 1
        if self.obs.enabled:
            self._record_search(evals, climb_steps, evals - len(seen))
        return OptimizationResult(
            config=self.table.config_at(current) if found else self.fail_safe,
            estimate=sweep.estimate(current),
            evaluations=evals, fail_safe=not found,
        )

    def _record_search(self, evals: int, climb_steps: Dict[str, int],
                       memo_hits: int) -> None:
        """Emit one search's step/evaluation telemetry (obs enabled).

        The span is resolved once and written directly (each
        ``tracer.inc`` call re-walks the thread-local span stack), and
        all counter bumps happen under one registry-lock hold — this
        runs once per search on the decision hot path.
        """
        span = self.obs.tracer.current()
        total_steps = sum(climb_steps.values())
        if span is not None:
            span.inc("hill_climb_steps", total_steps)
        by_knob = self._m_climb_by_knob
        # ``sorted`` keeps the span-attribute insertion order (and so
        # the exported trace bytes) independent of climb order.
        knobs = sorted(climb_steps)
        for knob in knobs:
            if span is not None:
                span.inc(_climb_step_key(knob), climb_steps[knob])
            if knob not in by_knob:
                by_knob[knob] = self._m_climb_steps.labelled(knob=knob)
        if span is not None:
            # Columnar-path telemetry: one sweep read per search (so a
            # launch's count is its searches), and how many requests
            # the per-search memo absorbed.
            span.inc("matrix_batches", 1)
            span.inc("memo_hits", memo_hits)
        with self._m_lock:
            self._m_searches.inc_unlocked()
            self._m_evaluations.inc_unlocked(evals)
            for knob in knobs:
                by_knob[knob].inc_unlocked(climb_steps[knob])
            self._m_memo_hits.inc_unlocked(memo_hits)

    def optimize_kernel_batch(
        self,
        cases: Sequence[Tuple[KernelRecord, PerformanceTracker]],
    ) -> List[OptimizationResult]:
        """Optimize many independent kernels from one stacked start.

        The distinct counter vectors of the batch that this optimizer
        holds no sweep for go to :meth:`sweep_many` together — one
        ``estimate_matrix_many`` call for their fail-safe crosses — and
        each case then runs the ordinary :meth:`optimize_kernel` against
        its own tracker, reading the cached sweeps.  Results, evaluation charges and telemetry are
        identical to per-case calls.  This is the multi-session decision
        hot path benchmarked by ``repro bench decide``'s ``batched``
        backend.

        Args:
            cases: ``(record, tracker)`` pairs; trackers not modified.

        Returns:
            One :class:`OptimizationResult` per case, in order.
        """
        cases = list(cases)
        self.sweep_many([record.counters for record, _ in cases])
        return [self.optimize_kernel(record, tracker) for record, tracker in cases]

    def exhaustive_kernel_search(self, record: KernelRecord,
                                 tracker: PerformanceTracker) -> OptimizationResult:
        """Reference: evaluate every configuration in the space.

        The comparator behind the paper's search-cost claim — greedy
        hill climbing needs ``|cpu| + |nb| + |gpu| + |cu|`` evaluations
        instead of the ``|cpu| x |nb| x |gpu| x |cu|`` of this
        exhaustive sweep, "a factor of 19x".  Only used for validation
        and the search-cost experiment; the runtime system always uses
        :meth:`optimize_kernel`.
        """
        # One columnar evaluation over the whole lattice; the selection
        # scan works on the float columns directly.
        batch = self.predictor.estimate_matrix(record.counters, self.table)
        evals = len(self.table)
        times = batch.times_s
        energies = batch.energy_j
        best_index: Optional[int] = None
        best_energy = 0.0
        for i in range(len(batch)):
            if not tracker.admits(record.instructions, float(times[i])):
                continue
            energy = float(energies[i])
            if best_index is None or energy < best_energy:
                best_index, best_energy = i, energy
        if best_index is None:
            return OptimizationResult(
                config=self.fail_safe,
                estimate=batch.estimate(self._fail_safe_index),
                evaluations=evals + 1, fail_safe=True,
            )
        return OptimizationResult(
            config=self.table.config_at(best_index),
            estimate=batch.estimate(best_index),
            evaluations=evals, fail_safe=False,
        )

    # ----- MPC window ------------------------------------------------------------

    def optimize_window(
        self,
        window: Sequence[KernelRecord],
        tracker: PerformanceTracker,
        reserved: Sequence[KernelRecord] = (),
        reserve_window: bool = True,
    ) -> OptimizationResult:
        """Optimize a search-ordered window; return the last kernel's result.

        The window lists the kernels in optimization (search) order,
        ending with the kernel about to execute.  Each kernel is
        optimized against the running throughput state and its expected
        instructions/time are committed before moving on — headroom
        created by one kernel carries to the next, exactly the paper's
        worked example of Figure 7.

        Equation 3's constraint spans the *whole* prediction window, so
        window members that have not been optimized yet (and any
        ``reserved`` members that will only be optimized on a later
        shift of the horizon) are accounted at their fail-safe
        estimates: a kernel may only take slack that the rest of the
        window can still repay at full speed.  This is also what lets
        the optimizer *grant* slack against future high-throughput
        kernels — the paper's kmeans scenario.

        Args:
            window: Kernel records in search order; must be non-empty.
                The final entry is the kernel to be launched now.
            tracker: Live throughput state; not modified.
            reserved: Window-range kernels outside the optimization
                prefix (they execute within the horizon but are decided
                on a later shift).
            reserve_window: Ablation switch — when ``False``, no
                fail-safe reserve is held at all and kernels are only
                accounted as they commit (per-kernel constraints).

        Returns:
            The result for the final (current) kernel, with the
            evaluation count summed over the whole window.
        """
        if not window:
            raise ValueError("window must contain at least the current kernel")
        speculative = tracker.copy()
        total_evals = 0

        # Every sweep the window needs, in one call for the vectors not
        # held yet; the searches below then read them from the cache.
        to_reserve = list(window[:-1]) + list(reserved) if reserve_window else []
        sweeps = self.sweep_many(
            [record.counters for record in [*window, *to_reserve]]
        )

        # Fail-safe reserve for everything in the window that has not
        # been committed yet (one evaluation charged per member).
        reserve_time = 0.0
        reserve_insts = 0.0
        pending: dict = {}
        for record, sweep in zip(to_reserve, sweeps[len(window):]):
            time_s = sweep.times_s[self._fail_safe_index]
            total_evals += 1
            pending[id(record)] = (record.instructions, time_s)
            reserve_time += time_s
            reserve_insts += record.instructions
        speculative.update(reserve_insts, reserve_time)

        result: Optional[OptimizationResult] = None
        for record in window:
            if id(record) in pending:
                insts, time_s = pending.pop(id(record))
                speculative.adjust(-insts, -time_s)
            result = self.optimize_kernel(record, speculative)
            total_evals += result.evaluations
            speculative.update(record.instructions, result.estimate.time_s)

        assert result is not None
        return OptimizationResult(
            config=result.config,
            estimate=result.estimate,
            evaluations=total_evals,
            fail_safe=result.fail_safe,
        )

    def optimize_window_backtracking(
        self,
        window: Sequence[KernelRecord],
        tracker: PerformanceTracker,
        max_combinations: int = 2_000_000,
    ) -> OptimizationResult:
        """Exact window optimization by exhaustive backtracking.

        The comparator the paper rules out for runtime use: jointly
        enumerate every configuration assignment over the window
        (``M^H`` combinations) and keep the minimum-energy assignment
        whose members all satisfy the running throughput constraint in
        *execution* order.  Exponential — usable only for validating
        the polynomial heuristic on small instances and for the
        paper's "65x search cost" comparison.

        Args:
            window: Kernel records in **execution** order; the first
                entry is the kernel about to launch.
            tracker: Live throughput state; not modified.
            max_combinations: Safety bound on ``M^H``.

        Returns:
            The result for the first (current) kernel under the jointly
            optimal assignment, with the full enumeration's evaluation
            count.

        Raises:
            ValueError: If the window is empty or the enumeration would
                exceed ``max_combinations``.
        """
        if not window:
            raise ValueError("window must contain at least the current kernel")
        table = self.table
        combinations = len(table) ** len(window)
        if combinations > max_combinations:
            raise ValueError(
                f"{combinations} combinations exceed the "
                f"{max_combinations} safety bound; shrink the window or "
                "the configuration space"
            )

        # Pre-evaluate each (kernel, config) pair once, one whole-lattice
        # sweep per kernel.
        estimates = [
            self.predictor.estimate_matrix(record.counters, table).to_estimates()
            for record in window
        ]
        evals = len(table) * len(window)

        best_energy = None
        best_first: Optional[Tuple[HardwareConfig, KernelEstimate]] = None
        base_insts = tracker.instructions
        base_time = tracker.time_s
        target = tracker.target_throughput

        for assignment in itertools.product(range(len(table)), repeat=len(window)):
            insts = base_insts
            time_s = base_time
            energy = 0.0
            feasible = True
            for position, config_index in enumerate(assignment):
                estimate = estimates[position][config_index]
                insts += window[position].instructions
                time_s += estimate.time_s
                energy += estimate.energy_j
                if insts / time_s < target:
                    feasible = False
                    break
            if not feasible:
                continue
            if best_energy is None or energy < best_energy:
                best_energy = energy
                first_index = assignment[0]
                best_first = (table.config_at(first_index), estimates[0][first_index])

        if best_first is None:
            return OptimizationResult(
                config=self.fail_safe,
                estimate=estimates[0][self._fail_safe_index],
                evaluations=evals + 1, fail_safe=True,
            )
        return OptimizationResult(
            config=best_first[0], estimate=best_first[1],
            evaluations=evals, fail_safe=False,
        )
