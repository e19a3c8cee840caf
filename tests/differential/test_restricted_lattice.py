"""The shipping hill climb vs. the per-configuration reference, per lattice shape.

The shared move table is built per lattice shape; these lattices give
it shapes the Table-I lattice does not, among them single-value axes
that the probe skips, and every search must still match the reference
float for float, evaluation for evaluation.  The memo-hit telemetry
must count what the reference shows: requests that repeat a
configuration the search already asked for.
"""

import pytest

from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.core.pattern import KernelRecord
from repro.core.tracker import PerformanceTracker
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace
from repro.ml.predictors import OraclePredictor
from repro.obs import make_instrumentation
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.suites import benchmark

from .reference_search import ReferenceOracle, ReferenceSearch

pytestmark = pytest.mark.traces

LATTICES = {
    "table-i": ConfigSpace(),
    "single-nb": ConfigSpace(
        cpu_states=("P7", "P4", "P1"), nb_states=("NB2",),
        gpu_states=("DPM0", "DPM4"), cu_counts=(2, 4, 8),
    ),
    "single-cpu-and-cu": ConfigSpace(
        cpu_states=("P7",), nb_states=("NB3", "NB2", "NB0"),
        gpu_states=("DPM0", "DPM2", "DPM4"), cu_counts=(8,),
    ),
    "one-config": ConfigSpace(
        cpu_states=("P7",), nb_states=("NB2",), gpu_states=("DPM4",), cu_counts=(8,),
    ),
}

#: Cumulative throughput targets as multiples of the kernel's fail-safe
#: throughput: loose, tight, just past the fail-safe (where a search can
#: still climb from an infeasible start), and out of reach.
SLACKS = (0.3, 0.7, 0.98, 1.0001, 1.5)

BENCHMARKS = ("kmeans", "NBody", "lbm", "XSBench", "Spmv")


class _AskedOracle(ReferenceOracle):
    """A reference oracle that records every configuration it is asked for."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.asked = []

    def answer(self, counters, config):
        self.asked.append(config)
        return super().answer(counters, config)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_search_matches_reference(name):
    space = LATTICES[name]
    apu = APUModel()
    specs = [spec for app in BENCHMARKS for spec in benchmark(app).unique_kernels]
    obs = make_instrumentation()
    shipping = GreedyHillClimbOptimizer(space, OraclePredictor(apu, specs), obs=obs)
    oracle = _AskedOracle(apu, specs)
    reference = ReferenceSearch(space, oracle)
    memo_hits = obs.registry.counter("repro_optimizer_memo_hits_total")
    synth = CounterSynthesizer(noise=0.0)
    for spec in specs:
        counters = synth.nominal(spec)
        record = KernelRecord(counters.signature(), counters, spec.instructions)
        fail_safe_time = apu.execute(spec, shipping.fail_safe).time_s
        for slack in SLACKS:
            target = slack * spec.instructions / fail_safe_time
            hits = memo_hits.total()
            got = shipping.optimize_kernel(record, PerformanceTracker(target))
            hits = memo_hits.total() - hits
            oracle.asked.clear()
            want = reference.optimize_kernel(record, PerformanceTracker(target))
            assert got == want, (name, spec.key, slack)
            assert hits == len(oracle.asked) - len(set(oracle.asked)), (name, spec.key, slack)
