"""Fuzzing the simulator with adversarial policies.

Whatever configurations a (buggy or malicious) policy returns, the
simulator's accounting invariants must hold: positive energies, time
conservation, consistent aggregates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.config import ConfigSpace
from repro.sim.policy import Decision, PowerPolicy
from repro.sim.simulator import Simulator
from repro.workloads.app import Application, Category
from repro.workloads.kernel import KernelSpec, ScalingClass

SPACE = ConfigSpace()
CONFIGS = SPACE.all_configs()
SIM = Simulator()

KERNELS = [
    KernelSpec("f1", ScalingClass.COMPUTE, 2.0, 0.1, parallel_fraction=0.98),
    KernelSpec("f2", ScalingClass.MEMORY, 0.4, 0.7, parallel_fraction=0.9),
    KernelSpec("f3", ScalingClass.UNSCALABLE, 0.2, 0.05, serial_time_s=0.005,
               parallel_fraction=0.7),
]


class _ScriptedPolicy(PowerPolicy):
    """Plays an arbitrary script of (config index, evaluation count)."""

    name = "fuzz"

    def __init__(self, script):
        self.script = script

    def decide(self, index, note=None):
        config_index, evals = self.script[index % len(self.script)]
        return Decision(config=CONFIGS[config_index], model_evaluations=evals)

    def observe(self, observation):
        pass


app_st = st.lists(st.integers(0, len(KERNELS) - 1), min_size=1, max_size=8).map(
    lambda picks: Application(
        "fuzz", "test", Category.IRREGULAR_NON_REPEATING,
        kernels=tuple(KERNELS[p] for p in picks), pattern="",
    )
)

script_st = st.lists(
    st.tuples(st.integers(0, len(CONFIGS) - 1), st.integers(0, 500)),
    min_size=1, max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(app_st, script_st)
def test_accounting_invariants(app, script):
    run = SIM.run(app, _ScriptedPolicy(script))
    assert len(run) == len(app)
    assert run.kernel_time_s > 0
    assert run.total_time_s >= run.kernel_time_s
    assert run.energy_j > 0
    assert run.gpu_energy_j > 0 and run.cpu_energy_j > 0
    assert run.instructions == sum(k.instructions for k in app.kernels)
    # Aggregates decompose over launches exactly.
    assert abs(run.kernel_time_s - sum(r.time_s for r in run.launches)) < 1e-12
    assert run.overhead_energy_j >= 0.0


@settings(max_examples=40, deadline=None)
@given(app_st, script_st)
def test_overhead_free_mode_strips_all_overheads(app, script):
    run = SIM.run(app, _ScriptedPolicy(script), charge_overhead=False)
    assert run.overhead_time_s == 0.0
    assert run.overhead_energy_j == 0.0


@settings(max_examples=30, deadline=None)
@given(app_st, script_st)
def test_runs_are_reproducible(app, script):
    a = SIM.run(app, _ScriptedPolicy(script))
    b = SIM.run(app, _ScriptedPolicy(script))
    assert a.energy_j == b.energy_j
    assert a.total_time_s == b.total_time_s
