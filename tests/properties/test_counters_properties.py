"""Property-based tests for counter synthesis and signatures."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads.counters import CounterSynthesizer, CounterVector
from repro.workloads.kernel import KernelSpec, ScalingClass

SYNTH = CounterSynthesizer(noise=0.0)

kernel_st = st.builds(
    KernelSpec,
    name=st.just("prop"),
    scaling_class=st.sampled_from(ScalingClass),
    compute_work=st.floats(0.05, 30.0),
    memory_traffic=st.floats(0.01, 3.0),
    parallel_fraction=st.floats(0.5, 0.999),
    serial_time_s=st.floats(0.0, 0.05),
    cache_interference=st.floats(0.0, 0.6),
    compute_efficiency=st.floats(0.5, 1.0),
)


@settings(max_examples=60)
@given(kernel_st)
def test_counters_are_finite_and_nonnegative(spec):
    values = SYNTH.nominal(spec).as_array()
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)


@settings(max_examples=60)
@given(kernel_st)
def test_percent_counters_bounded(spec):
    counters = SYNTH.nominal(spec)
    for value in (counters.mem_unit_stalled, counters.cache_hit,
                  counters.lds_bank_conflict):
        assert 0.0 <= value <= 100.0


@settings(max_examples=60)
@given(kernel_st)
def test_nominal_is_deterministic(spec):
    a = SYNTH.nominal(spec).as_array()
    b = SYNTH.nominal(spec).as_array()
    assert np.array_equal(a, b)


@settings(max_examples=60)
@given(kernel_st)
def test_work_identities(spec):
    counters = SYNTH.nominal(spec)
    # VALU insts per item times items recovers the compute work.
    recovered = counters.valu_insts * counters.global_work_size
    assert recovered == __import__("pytest").approx(spec.compute_work * 1e9, rel=1e-6)
    # FetchSize (kB) recovers the memory traffic (GB).
    assert counters.fetch_size == __import__("pytest").approx(
        spec.memory_traffic * 1e6, rel=1e-6
    )


#: A kernel four of whose counters sit within 4% below a bin edge
#: (e^3, e^4 and e^14), so a drift of 1.0390625x moves four bins.
EDGE_KERNEL = KernelSpec(
    name="prop",
    scaling_class=ScalingClass.COMPUTE,
    compute_work=3.0,
    memory_traffic=1.1875,
    parallel_fraction=0.71875,
    serial_time_s=0.0,
    cache_interference=0.0,
    compute_efficiency=0.5,
)


@settings(max_examples=60)
@given(kernel_st, st.floats(1.0, 1.04))
@example(EDGE_KERNEL, 1.0390625)
def test_signature_stable_under_small_perturbation_mostly(spec, factor):
    """A small upward drift moves a log bin only across a bin edge.

    ``floor(log u)`` guarantees no count of surviving bins: every
    counter may sit just below an edge at once.  What it does guarantee
    for a drift factor ``f`` in [1, e): a bin never moves down, moves
    up by at most one, and moves exactly when some ``e^k`` lies in
    ``(v, v*f]``.
    """
    base = SYNTH.nominal(spec)
    perturbed = CounterVector.from_array(base.as_array() * factor)
    for v, w, before, after in zip(
        base.as_array(), perturbed.as_array(),
        base.signature(), perturbed.signature(),
    ):
        assert before <= after <= before + 1
        crosses = v > 0 and v < math.exp(before + 1) <= w
        assert (after != before) == crosses


@settings(max_examples=40)
@given(kernel_st, st.integers(0, 50))
def test_observation_reproducible(spec, sequence):
    noisy = CounterSynthesizer(noise=0.05, seed=11)
    a = noisy.observe(spec, sequence=sequence).as_array()
    b = noisy.observe(spec, sequence=sequence).as_array()
    assert np.array_equal(a, b)
