"""Unit tests for greedy hill climbing and the MPC window optimization."""

import gc
import weakref

import pytest

from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.core.pattern import KernelRecord
from repro.core.tracker import PerformanceTracker
from repro.hardware.apu import APUModel
from repro.hardware.config import KNOBS, ConfigSpace
from repro.hardware.table import ConfigTable, MoveTable
from repro.ml.predictors import OraclePredictor, PerfPowerPredictor, train_predictor
from repro.ml.tree import DecisionTreeRegressor
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec, ScalingClass

COMPUTE = KernelSpec("c", ScalingClass.COMPUTE, 5.0, 0.1, parallel_fraction=0.99)
MEMORY = KernelSpec("m", ScalingClass.MEMORY, 0.5, 1.0, parallel_fraction=0.9)
SYNTH = CounterSynthesizer(noise=0.0)


@pytest.fixture(scope="module")
def apu():
    return APUModel()


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _record(spec) -> KernelRecord:
    counters = SYNTH.nominal(spec)
    return KernelRecord(
        signature=counters.signature(),
        counters=counters,
        instructions=spec.instructions,
    )


def _optimizer(apu, space, kernels):
    return GreedyHillClimbOptimizer(space, OraclePredictor(apu, kernels))


def _baseline_time(apu, spec, space):
    return apu.execute(spec, space.fastest()).time_s


class TestHillClimb:
    def test_saves_energy_with_generous_headroom(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        baseline = _baseline_time(apu, COMPUTE, space)
        # Target set so the kernel may run 2x slower than baseline.
        target = COMPUTE.instructions / (2 * baseline)
        result = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
        assert not result.fail_safe
        baseline_energy = apu.kernel_energy(COMPUTE, space.fastest())
        assert apu.kernel_energy(COMPUTE, result.config) < 0.8 * baseline_energy

    def test_respects_tight_target(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        baseline = _baseline_time(apu, COMPUTE, space)
        target = COMPUTE.instructions / (1.02 * baseline)
        result = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
        actual = apu.execute(COMPUTE, result.config).time_s
        assert actual <= 1.02 * baseline * 1.0001

    def test_fail_safe_when_infeasible(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        baseline = _baseline_time(apu, COMPUTE, space)
        # Demand twice the best achievable throughput.
        target = 2 * COMPUTE.instructions / baseline
        result = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
        assert result.fail_safe
        assert result.config == optimizer.fail_safe

    def test_evaluation_count_far_below_exhaustive(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        baseline = _baseline_time(apu, COMPUTE, space)
        target = COMPUTE.instructions / (2 * baseline)
        result = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
        # The paper's point: ~|cpu|+|nb|+|gpu|+|cu| evaluations, not 336.
        assert result.evaluations < 60

    def test_memory_kernel_keeps_bandwidth(self, apu, space):
        optimizer = _optimizer(apu, space, [MEMORY])
        baseline = _baseline_time(apu, MEMORY, space)
        target = MEMORY.instructions / (1.05 * baseline)
        result = optimizer.optimize_kernel(_record(MEMORY), PerformanceTracker(target))
        assert not result.fail_safe
        assert result.config.nb != "NB3"  # NB3 would halve the bandwidth

    def test_cpu_knob_always_lowered(self, apu, space):
        # Kernel time ignores the CPU state, so the CPU should end at P7.
        optimizer = _optimizer(apu, space, [COMPUTE])
        baseline = _baseline_time(apu, COMPUTE, space)
        target = COMPUTE.instructions / (1.5 * baseline)
        result = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
        assert result.config.cpu == "P7"

    def test_estimate_matches_chosen_config(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        baseline = _baseline_time(apu, COMPUTE, space)
        target = COMPUTE.instructions / (1.5 * baseline)
        result = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
        truth = apu.execute(COMPUTE, result.config)
        assert result.estimate.time_s == pytest.approx(truth.time_s)


class TestWindow:
    def test_empty_window_rejected(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        with pytest.raises(ValueError):
            optimizer.optimize_window([], PerformanceTracker(1.0))

    def test_window_returns_last_kernel_choice(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE, MEMORY])
        baseline = (
            _baseline_time(apu, COMPUTE, space) + _baseline_time(apu, MEMORY, space)
        )
        target = (COMPUTE.instructions + MEMORY.instructions) / (1.3 * baseline)
        window = [_record(MEMORY), _record(COMPUTE)]
        result = optimizer.optimize_window(window, PerformanceTracker(target))
        # The result must be a sensible configuration for the *compute*
        # kernel (last in window): it needs CUs, not NB bandwidth.
        truth = apu.execute(COMPUTE, result.config)
        assert truth.time_s <= 1.5 * _baseline_time(apu, COMPUTE, space)

    def test_window_does_not_mutate_tracker(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        tracker = PerformanceTracker(1.0)
        optimizer.optimize_window([_record(COMPUTE)], tracker)
        assert tracker.instructions == 0.0

    def test_window_evaluations_accumulate(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE, MEMORY])
        tracker = PerformanceTracker(1.0)  # trivially satisfied target
        single = optimizer.optimize_window([_record(COMPUTE)], tracker)
        double = optimizer.optimize_window(
            [_record(MEMORY), _record(COMPUTE)], tracker
        )
        assert double.evaluations > single.evaluations

    def test_earlier_window_kernels_consume_headroom(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE, MEMORY])
        base_c = _baseline_time(apu, COMPUTE, space)
        base_m = _baseline_time(apu, MEMORY, space)
        total_insts = COMPUTE.instructions + MEMORY.instructions
        # Budget fits both kernels at baseline pace plus 10%.
        target = total_insts / (1.1 * (base_c + base_m))
        alone = optimizer.optimize_window(
            [_record(COMPUTE)], PerformanceTracker(target)
        )
        with_memory_first = optimizer.optimize_window(
            [_record(MEMORY), _record(COMPUTE)], PerformanceTracker(target)
        )
        # Committing the memory kernel first leaves less headroom, so
        # the compute kernel's chosen config cannot be slower.
        t_alone = apu.execute(COMPUTE, alone.config).time_s
        t_with = apu.execute(COMPUTE, with_memory_first.config).time_s
        assert t_with <= t_alone + 1e-9


# ----- predictor calls: one cross at a time ----------------------------------

#: Rows of the fail-safe cross on the Table-I lattice (1 + 6 + 3 + 2 + 3):
#: every new sweep's first call computes these.
CROSS = 15


class _CountingPredictor(PerfPowerPredictor):
    """Records the shape of every predictor call, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []  # (kernels, rows requested or None for all)

    def estimate_matrix_many(self, counters_list, table, indices=None):
        self.calls.append(
            (len(counters_list), None if indices is None else len(indices))
        )
        return self.inner.estimate_matrix_many(counters_list, table, indices)


def _targets(apu, space):
    baseline = _baseline_time(apu, COMPUTE, space)
    return {
        "easy": COMPUTE.instructions / (2 * baseline),
        "tight": COMPUTE.instructions / (1.02 * baseline),
        "infeasible": 2 * COMPUTE.instructions / baseline,
    }


class TestPredictorCalls:
    # Each search starts at the fail-safe and probes along its cross;
    # a read outside the crosses computed so far computes the unknown
    # rest of the cross through the row read, in one call.
    @pytest.mark.parametrize("target", ["easy", "tight", "infeasible"])
    def test_search_fills_one_cross_per_call(self, apu, space, target):
        predictor = _CountingPredictor(OraclePredictor(apu, [COMPUTE]))
        optimizer = GreedyHillClimbOptimizer(space, predictor)
        result = optimizer.optimize_kernel(
            _record(COMPUTE), PerformanceTracker(_targets(apu, space)[target])
        )
        assert result.fail_safe == (target == "infeasible")
        assert result.evaluations > 1
        assert predictor.calls == {
            "easy": [(1, CROSS), (1, 13)],
            "tight": [(1, CROSS), (1, 13), (1, 12), (1, 11)],
            "infeasible": [(1, CROSS)],
        }[target]

    @pytest.mark.parametrize("target", ["easy", "infeasible"])
    def test_exhaustive_search_issues_at_most_two_calls(self, apu, space, target):
        predictor = _CountingPredictor(OraclePredictor(apu, [COMPUTE]))
        optimizer = GreedyHillClimbOptimizer(space, predictor)
        result = optimizer.exhaustive_kernel_search(
            _record(COMPUTE), PerformanceTracker(_targets(apu, space)[target])
        )
        # One sweep; the fail-safe row, when nothing is feasible, is
        # read from it.
        assert predictor.calls == [(1, None)]
        assert result.fail_safe == (target == "infeasible")

    def test_batch_issues_one_stacked_call(self, apu, space):
        predictor = _CountingPredictor(OraclePredictor(apu, [COMPUTE, MEMORY]))
        optimizer = GreedyHillClimbOptimizer(space, predictor)
        target = _targets(apu, space)["easy"]
        cases = [
            (_record(COMPUTE if i % 2 else MEMORY), PerformanceTracker(target))
            for i in range(8)
        ]
        results = optimizer.optimize_kernel_batch(cases)
        assert len(results) == 8
        # Both fail-safe crosses in one stacked call; the compute
        # kernel's climb then reads into one more cross, once for all
        # four of its cases.
        assert predictor.calls == [(2, CROSS), (1, 13)]

    def test_window_of_one_repeated_record_sweeps_once(self, apu, space):
        predictor = _CountingPredictor(OraclePredictor(apu, [COMPUTE]))
        optimizer = GreedyHillClimbOptimizer(space, predictor)
        record = _record(COMPUTE)
        target = _targets(apu, space)["easy"]
        # Every window slot holds the same vector object, as an A20
        # window over one kernel does; 19 of them are also reserved at
        # fail-safe.  The calls are those of one search alone.
        optimizer.optimize_window([record] * 20, PerformanceTracker(target))
        assert predictor.calls == [(1, CROSS), (1, 13)]

    def test_repeated_window_with_unchanged_records_makes_no_call(self, apu, space):
        predictor = _CountingPredictor(OraclePredictor(apu, [COMPUTE, MEMORY]))
        optimizer = GreedyHillClimbOptimizer(space, predictor)
        window = [_record(MEMORY), _record(COMPUTE)]
        tracker = PerformanceTracker(_targets(apu, space)["easy"])
        first = optimizer.optimize_window(window, tracker)
        assert predictor.calls == [(2, CROSS)]
        again = optimizer.optimize_window(window, tracker)
        assert predictor.calls == [(2, CROSS)]
        assert again == first

    def test_replaced_counters_are_reswept_once(self, apu, space):
        predictor = _CountingPredictor(OraclePredictor(apu, [COMPUTE]))
        optimizer = GreedyHillClimbOptimizer(space, predictor)
        record = _record(COMPUTE)
        tracker = PerformanceTracker(_targets(apu, space)["easy"])
        optimizer.optimize_window([record] * 3, tracker)
        assert predictor.calls == [(1, CROSS), (1, 13)]
        # Feedback replaces a record's vector with a new object, as
        # KernelPatternExtractor.observe does.
        record.counters = CounterSynthesizer().observe(COMPUTE, sequence=1)
        for _ in range(3):
            optimizer.optimize_window([record] * 3, tracker)
        assert predictor.calls == [(1, CROSS), (1, 13)] * 2
        # The replaced vector's sweep died with the vector.
        assert len(optimizer._sweeps) == 1


def test_forest_backed_searches_never_descend_single_trees(apu, space, monkeypatch):
    predictor = train_predictor(
        apu=apu, kernels=[COMPUTE, MEMORY], n_estimators=3, max_depth=5
    )
    optimizer = GreedyHillClimbOptimizer(space, predictor)

    def refuse(self, X):
        raise AssertionError("per-tree predict on the decision path")

    monkeypatch.setattr(DecisionTreeRegressor, "predict", refuse)
    target = _targets(apu, space)["easy"]
    single = optimizer.optimize_kernel(_record(COMPUTE), PerformanceTracker(target))
    batch = optimizer.optimize_kernel_batch(
        [(_record(spec), PerformanceTracker(target)) for spec in (COMPUTE, MEMORY)]
    )
    for result in [single, *batch]:
        assert result.config in space
        assert result.evaluations > 1


# ----- the shared move table ---------------------------------------------------

#: A restricted lattice whose NB axis holds one value: the probe skips
#: that knob, and the table has no NB moves.
SINGLE_NB_SPACE = ConfigSpace(
    cpu_states=("P7", "P4", "P1"), nb_states=("NB2",),
    gpu_states=("DPM0", "DPM4"), cu_counts=(2, 4, 8),
)


class TestMoveTable:
    @pytest.mark.parametrize(
        "space", [ConfigSpace(), SINGLE_NB_SPACE], ids=["table-i", "single-nb"]
    )
    def test_every_row_equals_config_table_arithmetic(self, space):
        # ConfigTable.moves() is the table's only knob arithmetic: each
        # entry must name the rows ConfigSpace.step, the axis ends and a
        # brute-force one-knob-move scan reach.
        table = ConfigTable(space)
        moves = table.moves()
        rows = {config: i for i, config in enumerate(table.configs)}
        knobs = [tuple(config.knob(knob) for knob in KNOBS) for config in table.configs]
        # A single-value axis is never probed, so never climbed.
        probed = [knob for knob in KNOBS if len(space.axis(knob)) >= 2]
        assert [knob for knob, _, _ in moves.probe_knobs] == probed
        assert [
            (KNOBS[position], span) for _, position, span in moves.probe_knobs
        ] == [(knob, len(space.axis(knob)) - 1) for knob in probed]
        assert len(moves.cross) == len(table)
        for index, config in enumerate(table.configs):
            assert list(moves.cross[index]) == [
                row for row, other in enumerate(knobs)
                if sum(a != b for a, b in zip(other, knobs[index])) <= 1
            ]
            for position, knob in enumerate(KNOBS):
                stepped = [space.step(config, knob, direction) for direction in (-1, +1)]
                down, up = moves.steps[index][position]
                assert (down, up) == tuple(
                    None if neighbour is None else rows[neighbour] for neighbour in stepped
                )
                assert moves.neighbours[index][position] == tuple(
                    (side, row) for side, row in enumerate((down, up))
                    if row is not None
                )
            assert moves.probes[index] == tuple(
                rows[config.replace(**{knob: end})]
                for knob in probed
                for end in (space.axis(knob)[0], space.axis(knob)[-1])
            )

    def test_optimizers_on_one_lattice_share_one_table(self, apu, space):
        a = _optimizer(apu, space, [COMPUTE])
        b = GreedyHillClimbOptimizer(ConfigSpace(), OraclePredictor(apu, [MEMORY]))
        assert a.table.moves() is b.table.moves()
        single_nb = _optimizer(apu, SINGLE_NB_SPACE, [COMPUTE])
        assert a.table.moves() is not single_nb.table.moves()
        # Held by the module memo, never by the optimizer itself.
        a.optimize_kernel(_record(COMPUTE), PerformanceTracker(_targets(apu, space)["easy"]))
        assert not any(isinstance(value, MoveTable) for value in vars(a).values())

    def test_cached_sweep_holds_no_reference_to_its_vector(self, apu, space):
        optimizer = _optimizer(apu, space, [COMPUTE])
        counters = CounterSynthesizer().observe(COMPUTE, sequence=3)
        [sweep] = optimizer.sweep_many([counters])
        assert sweep.counters == counters
        assert sweep.counters is not counters
        assert not any(ref is counters for ref in gc.get_referents(sweep))
        alive = weakref.ref(counters)
        del counters
        gc.collect()
        assert alive() is None
        assert len(optimizer._sweeps) == 0
