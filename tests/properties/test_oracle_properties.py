"""Property-based tests for the Theoretically Optimal solver."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.oracle import solve_theoretically_optimal
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

APU = APUModel()
SMALL_SPACE = ConfigSpace(
    cpu_states=("P7", "P1"), nb_states=("NB3", "NB0"),
    gpu_states=("DPM0", "DPM4"), cu_counts=(2, 8),
)

kernel_st = st.builds(
    KernelSpec,
    name=st.sampled_from(["a", "b", "c"]),
    scaling_class=st.sampled_from(ScalingClass),
    compute_work=st.floats(0.2, 10.0),
    memory_traffic=st.floats(0.05, 1.5),
    parallel_fraction=st.floats(0.6, 0.99),
    serial_time_s=st.floats(0.0, 0.02),
    compute_efficiency=st.floats(0.6, 0.95),
)

def _make_app(kernels) -> Application:
    # Distinct parameter draws must get distinct identities (launches
    # of literally the same spec may still repeat).
    tagged = []
    seen = {}
    for spec in kernels:
        if spec.key in seen and seen[spec.key] != spec:
            spec = spec.with_input(len(tagged) + 1)
        seen[spec.key] = spec
        tagged.append(spec)
    return Application(
        "prop", "test", Category.IRREGULAR_NON_REPEATING,
        kernels=tuple(tagged), pattern="",
    )


app_st = st.lists(kernel_st, min_size=1, max_size=5).map(_make_app)

slack_st = st.floats(1.0, 2.5)


def _target(app, slack):
    fastest = SMALL_SPACE.fastest()
    baseline = sum(APU.execute(k, fastest).time_s for k in app.kernels)
    return app.total_instructions / (slack * baseline)


@settings(max_examples=25, deadline=None)
@given(app_st, slack_st)
def test_plan_is_always_feasible_for_achievable_targets(app, slack):
    plan = solve_theoretically_optimal(app, APU, _target(app, slack), SMALL_SPACE)
    assert plan.feasible
    assert len(plan.configs) == len(app)


@settings(max_examples=25, deadline=None)
@given(app_st, slack_st)
# The greedy pass alone planned [P7, NB0, DPM4, 8 CUs] for the first
# kernel at 4.29646 J; the uniform [P7, NB3, DPM0, 8 CUs] costs 4.28017 J.
@example(
    app=_make_app([
        KernelSpec("a", ScalingClass.COMPUTE, 3.0, 1.0, parallel_fraction=0.75,
                   serial_time_s=0.015625, compute_efficiency=0.75),
        KernelSpec("a", ScalingClass.COMPUTE, 3.0, 0.75, parallel_fraction=0.75,
                   serial_time_s=0.015625, compute_efficiency=0.875),
    ]),
    slack=2.0,
)
def test_plan_never_beaten_by_uniform_configs(app, slack):
    """No single fixed configuration beats the plan's energy (feasibly)."""
    target = _target(app, slack)
    plan = solve_theoretically_optimal(app, APU, target, SMALL_SPACE)
    budget = app.total_instructions / target
    for config in SMALL_SPACE:
        time_s = sum(APU.execute(k, config).time_s for k in app.kernels)
        if time_s > budget:
            continue
        energy = sum(APU.execute(k, config).energy_j for k in app.kernels)
        assert plan.total_energy_j <= energy * (1 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(app_st)
def test_looser_budget_never_costs_energy(app):
    tight = solve_theoretically_optimal(app, APU, _target(app, 1.1), SMALL_SPACE)
    loose = solve_theoretically_optimal(app, APU, _target(app, 2.0), SMALL_SPACE)
    assert loose.total_energy_j <= tight.total_energy_j * (1 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(app_st, slack_st)
def test_identical_launches_share_configs(app, slack):
    plan = solve_theoretically_optimal(app, APU, _target(app, slack), SMALL_SPACE)
    chosen = {}
    for spec, config in zip(app.kernels, plan.configs):
        assert chosen.setdefault(spec.key, config) == config
