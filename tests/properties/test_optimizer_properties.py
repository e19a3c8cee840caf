"""Property-based tests for the greedy hill-climbing optimizer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import MAX_PASSES, GreedyHillClimbOptimizer
from repro.core.pattern import KernelRecord
from repro.core.tracker import PerformanceTracker
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace
from repro.ml.predictors import OraclePredictor
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec, ScalingClass

APU = APUModel()
SPACE = ConfigSpace()
SYNTH = CounterSynthesizer(noise=0.0)

kernel_st = st.builds(
    KernelSpec,
    name=st.just("prop"),
    scaling_class=st.sampled_from(ScalingClass),
    compute_work=st.floats(0.2, 20.0),
    memory_traffic=st.floats(0.02, 2.0),
    parallel_fraction=st.floats(0.6, 0.995),
    serial_time_s=st.floats(0.0, 0.02),
    compute_efficiency=st.floats(0.6, 0.95),
)

#: Slack factor: how much slower than the fastest config the target allows.
slack_st = st.floats(1.0, 3.0)


def _setup(spec, slack):
    oracle = OraclePredictor(APU, [spec])
    optimizer = GreedyHillClimbOptimizer(SPACE, oracle)
    counters = SYNTH.nominal(spec)
    record = KernelRecord(
        signature=counters.signature(), counters=counters,
        instructions=spec.instructions,
    )
    baseline = APU.execute(spec, SPACE.fastest()).time_s
    target = spec.instructions / (slack * baseline)
    return optimizer, record, PerformanceTracker(target)


@settings(max_examples=30, deadline=None)
@given(kernel_st, slack_st)
def test_result_config_always_in_space(spec, slack):
    optimizer, record, tracker = _setup(spec, slack)
    result = optimizer.optimize_kernel(record, tracker)
    assert result.config in SPACE


@settings(max_examples=30, deadline=None)
@given(kernel_st, slack_st)
def test_non_failsafe_results_meet_target(spec, slack):
    optimizer, record, tracker = _setup(spec, slack)
    result = optimizer.optimize_kernel(record, tracker)
    if not result.fail_safe:
        # With the oracle predictor the estimate is exact, so the true
        # execution must satisfy Equation 4's headroom.
        assert tracker.admits(record.instructions, result.estimate.time_s)
        truth = APU.execute(spec, result.config).time_s
        assert truth <= tracker.headroom_s(record.instructions) * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(kernel_st, slack_st)
def test_never_worse_than_failsafe_energy(spec, slack):
    optimizer, record, tracker = _setup(spec, slack)
    result = optimizer.optimize_kernel(record, tracker)
    failsafe_energy = APU.kernel_energy(spec, optimizer.fail_safe)
    chosen_energy = APU.kernel_energy(spec, result.config)
    assert chosen_energy <= failsafe_energy * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(kernel_st, slack_st)
def test_evaluation_budget(spec, slack):
    optimizer, record, tracker = _setup(spec, slack)
    result = optimizer.optimize_kernel(record, tracker)
    # 1 start + 8 sensitivity probes + at most every knob axis twice
    # per hill-climbing pass.
    budget = 9 + MAX_PASSES * 2 * SPACE.knob_cardinality_sum()
    assert 0 < result.evaluations <= budget


@settings(max_examples=20, deadline=None)
@given(kernel_st)
def test_more_slack_never_costs_energy(spec):
    optimizer, record, tracker_tight = _setup(spec, 1.05)
    _, _, tracker_loose = _setup(spec, 2.5)
    tight = optimizer.optimize_kernel(record, tracker_tight)
    loose = optimizer.optimize_kernel(record, tracker_loose)
    tight_energy = APU.kernel_energy(spec, tight.config)
    loose_energy = APU.kernel_energy(spec, loose.config)
    assert loose_energy <= tight_energy * (1 + 1e-9)
