"""Unit tests for Table-III counter synthesis and signatures."""

import pickle
import weakref

import numpy as np
import pytest

from repro.workloads.counters import COUNTER_NAMES, CounterSynthesizer, CounterVector
from repro.workloads.kernel import KernelSpec, ScalingClass

COMPUTE = KernelSpec("c", ScalingClass.COMPUTE, 10.0, 0.05, parallel_fraction=0.99)
MEMORY = KernelSpec("m", ScalingClass.MEMORY, 0.5, 1.5, parallel_fraction=0.9)
UNSCALABLE = KernelSpec("u", ScalingClass.UNSCALABLE, 0.2, 0.05,
                        serial_time_s=0.02, parallel_fraction=0.7)


@pytest.fixture
def synth():
    return CounterSynthesizer(noise=0.0)


class TestCounterVector:
    def test_roundtrip(self):
        values = np.arange(1.0, 9.0)
        vector = CounterVector.from_array(values)
        assert np.allclose(vector.as_array(), values)

    def test_as_dict_keys(self):
        vector = CounterVector.from_array(np.ones(8))
        assert tuple(vector.as_dict()) == COUNTER_NAMES

    def test_from_array_wrong_length(self):
        with pytest.raises(ValueError):
            CounterVector.from_array([1.0, 2.0])

    def test_signature_log_binning(self):
        vector = CounterVector.from_array([1.0, 2.0, 3.0, 8.0, 20.0, 55.0, 150.0, 0.0])
        # floor(ln(u)); zero maps to the sentinel bin -1.
        assert vector.signature() == (0, 0, 1, 2, 2, 4, 5, -1)

    def test_values_in_same_bin_share_signature(self):
        a = CounterVector.from_array([10.0] * 8)
        b = CounterVector.from_array([12.0] * 8)  # ln in [2.30, 2.48]
        assert a.signature() == b.signature()

    def test_blending(self):
        a = CounterVector.from_array(np.zeros(8) + 2.0)
        b = CounterVector.from_array(np.zeros(8) + 4.0)
        blended = a.blended_with(b, weight=0.5)
        assert np.allclose(blended.as_array(), 3.0)

    def test_blending_weight_bounds(self):
        a = CounterVector.from_array(np.ones(8))
        with pytest.raises(ValueError):
            a.blended_with(a, weight=1.5)


    def test_hash_is_kept_outside_the_vector_state(self):
        vector = CounterSynthesizer().observe(COMPUTE, sequence=3)
        fields = tuple(vars(vector))
        pickled = pickle.dumps(vector)
        value = hash(vector)
        # The hash is the dataclass field-tuple hash, computed once; the
        # eight fields stay the whole of vars(), pickles and copies.
        assert value == hash(tuple(vars(vector).values()))
        assert tuple(vars(vector)) == fields and len(fields) == 8
        assert pickle.dumps(vector) == pickled
        for copy in (pickle.loads(pickled), CounterVector(**vars(vector))):
            assert copy == vector and copy is not vector
            assert hash(copy) == value
        assert weakref.ref(vector)() is vector

    def test_equality_is_by_value(self):
        vector = CounterVector.from_array(np.arange(1.0, 9.0))
        nan = CounterVector.from_array(np.full(8, np.nan))
        assert vector == CounterVector.from_array(np.arange(1.0, 9.0))
        assert vector != CounterVector.from_array(np.arange(2.0, 10.0))
        assert vector != tuple(vars(vector).values())
        assert nan == nan and nan != CounterVector.from_array(np.full(8, np.nan))


class TestSynthesis:
    def test_nominal_deterministic(self, synth):
        assert np.allclose(
            synth.nominal(COMPUTE).as_array(), synth.nominal(COMPUTE).as_array()
        )

    def test_memory_kernel_stalls_more(self, synth):
        assert (
            synth.nominal(MEMORY).mem_unit_stalled
            > synth.nominal(COMPUTE).mem_unit_stalled
        )

    def test_compute_kernel_hits_cache_more(self, synth):
        assert synth.nominal(COMPUTE).cache_hit > synth.nominal(MEMORY).cache_hit

    def test_serialized_kernel_has_lds_conflicts(self, synth):
        assert (
            synth.nominal(UNSCALABLE).lds_bank_conflict
            > synth.nominal(COMPUTE).lds_bank_conflict
        )

    def test_fetch_size_tracks_memory_traffic(self, synth):
        assert synth.nominal(MEMORY).fetch_size == pytest.approx(1.5e6)

    def test_percent_counters_bounded(self, synth):
        for spec in (COMPUTE, MEMORY, UNSCALABLE):
            counters = synth.nominal(spec)
            for value in (counters.mem_unit_stalled, counters.cache_hit,
                          counters.lds_bank_conflict):
                assert 0.0 <= value <= 100.0

    def test_observation_noise(self):
        noisy = CounterSynthesizer(noise=0.05, seed=1)
        clean = noisy.nominal(COMPUTE).as_array()
        observed = noisy.observe(COMPUTE).as_array()
        assert not np.allclose(observed, clean)
        assert np.all(observed >= 0.0)

    def test_observation_deterministic_per_launch(self):
        noisy = CounterSynthesizer(noise=0.05, seed=1)
        a = noisy.observe(COMPUTE, sequence=3).as_array()
        b = noisy.observe(COMPUTE, sequence=3).as_array()
        c = noisy.observe(COMPUTE, sequence=4).as_array()
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_zero_noise_observation_equals_nominal(self, synth):
        assert np.allclose(
            synth.observe(COMPUTE).as_array(), synth.nominal(COMPUTE).as_array()
        )

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            CounterSynthesizer(noise=-0.1)

    def test_different_kernels_different_signatures(self, synth):
        assert synth.nominal(COMPUTE).signature() != synth.nominal(MEMORY).signature()


def _direct_observe(synth, spec, sequence):
    """The unmemoized formula: nominal counters, then seeded jitter."""
    import hashlib

    nominal = synth.nominal(spec).as_array()
    if synth.noise == 0.0:
        return CounterVector.from_array(nominal)
    digest = hashlib.sha256(repr((synth.seed, spec.key, sequence)).encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    jitter = rng.normal(1.0, synth.noise, size=nominal.shape)
    return CounterVector.from_array(np.clip(nominal * jitter, 0.0, None))


class TestObservationMemo:
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_memoized_observation_equals_the_direct_formula(self, noise):
        from repro.workloads.suites import all_benchmarks

        synth = CounterSynthesizer(noise=noise)
        specs = {
            spec for app in all_benchmarks() for spec in app.unique_kernels
        }
        for spec in sorted(specs, key=lambda spec: spec.key):
            for sequence in range(3):
                assert synth.observe(spec, sequence) == _direct_observe(
                    synth, spec, sequence
                )

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_observing_leaves_pickle_and_description_unchanged(self, noise):
        import pickle

        from repro.engine.fingerprint import describe

        synth = CounterSynthesizer(noise=noise)
        before = (pickle.dumps(synth), describe(synth))
        for sequence in range(3):
            synth.observe(COMPUTE, sequence)
            synth.observe(MEMORY, sequence)
        assert (pickle.dumps(synth), describe(synth)) == before

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_every_call_returns_a_new_vector(self, noise):
        # The optimizer's sweep cache is keyed by vector object.
        synth = CounterSynthesizer(noise=noise)
        first = synth.observe(COMPUTE, sequence=5)
        second = synth.observe(COMPUTE, sequence=5)
        assert first == second
        assert first is not second

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_repeated_observations_equal_the_direct_formula(self, noise):
        from repro.workloads.suites import all_benchmarks

        synth = CounterSynthesizer(noise=noise)
        specs = sorted(
            {spec for app in all_benchmarks() for spec in app.unique_kernels},
            key=lambda spec: spec.key,
        )
        sequences = (0, 1, 7, 1000)
        for _ in range(3):  # a miss, then hits
            for spec in specs:
                for sequence in sequences:
                    assert synth.observe(spec, sequence) == _direct_observe(
                        synth, spec, sequence
                    )

    def test_specs_sharing_a_key_are_observed_apart(self):
        # The noise is drawn from the spec's key, but it scales the whole
        # spec's nominal counters: a spec differing in any other field
        # observes differently.
        import dataclasses

        synth = CounterSynthesizer(noise=0.02)
        heavier = dataclasses.replace(MEMORY, compute_work=MEMORY.compute_work * 3)
        assert heavier.key == MEMORY.key
        for spec in (MEMORY, heavier, MEMORY, heavier):
            assert synth.observe(spec, 4) == _direct_observe(synth, spec, 4)
        assert synth.observe(MEMORY, 4) != synth.observe(heavier, 4)

    def test_the_memo_is_bounded_and_stays_exact(self):
        from repro.workloads import counters

        synth = CounterSynthesizer(noise=0.02)
        bound = counters._OBSERVED_BOUND
        for sequence in range(bound + 50):
            observed = synth.observe(COMPUTE, sequence)
            if sequence % 97 == 0:
                assert observed == _direct_observe(synth, COMPUTE, sequence)
            assert len(counters._OBSERVED[synth]) <= bound
        for sequence in (0, bound - 1, bound, bound + 49):
            assert synth.observe(COMPUTE, sequence) == _direct_observe(
                synth, COMPUTE, sequence
            )
        assert len(counters._OBSERVED[synth]) <= bound

    def test_each_synthesizer_keeps_its_own_observations(self):
        seeded = CounterSynthesizer(noise=0.02, seed=1)
        other = CounterSynthesizer(noise=0.02, seed=2)
        for synth in (seeded, other, seeded, other):
            assert synth.observe(COMPUTE, 3) == _direct_observe(synth, COMPUTE, 3)
        assert seeded.observe(COMPUTE, 3) != other.observe(COMPUTE, 3)

    def test_a_second_synthesizer_reuses_resolved_nominal_counters(
        self, monkeypatch
    ):
        # Nominal counters depend on the spec alone: once one synthesizer
        # resolved a spec, another evaluates no timing model for it.
        from repro.hardware.perf import TimingModel

        evaluated = []
        evaluate = TimingModel.kernel_timing_matrix

        def counted(self, spec, *args, **kwargs):
            evaluated.append(spec)
            return evaluate(self, spec, *args, **kwargs)

        monkeypatch.setattr(TimingModel, "kernel_timing_matrix", counted)
        CounterSynthesizer(noise=0.02, seed=1).observe(UNSCALABLE, 0)
        evaluated.clear()
        second = CounterSynthesizer(noise=0.02, seed=2)
        observed = [second.observe(UNSCALABLE, sequence) for sequence in range(3)]
        assert evaluated == []
        assert observed == [
            _direct_observe(second, UNSCALABLE, sequence) for sequence in range(3)
        ]

    def test_the_nominal_memo_is_bounded_and_stays_exact(self):
        import dataclasses

        from repro.workloads import counters

        synth = CounterSynthesizer(noise=0.0)
        bound = counters._OBSERVED_BOUND
        for i in range(bound + 50):
            spec = dataclasses.replace(COMPUTE, name=f"c{i}")
            observed = synth.observe(spec)
            if i % 97 == 0:
                assert observed == _direct_observe(synth, spec, 0)
            assert len(counters._NOMINAL) <= bound
        assert synth.observe(COMPUTE) == _direct_observe(synth, COMPUTE, 0)
