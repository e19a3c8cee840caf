"""Unit tests for the kernel pattern extractor and period detection."""

import numpy as np
import pytest

from repro.core.pattern import (
    BYTES_PER_RECORD,
    KernelPatternExtractor,
    detect_period,
)
from repro.workloads.counters import CounterVector


def _counters(scale: float) -> CounterVector:
    return CounterVector.from_array(np.full(8, scale))


A = _counters(10.0)
B = _counters(1000.0)
C = _counters(100000.0)


class TestDetectPeriod:
    def test_constant_sequence(self):
        assert detect_period(["a", "a", "a", "a"]) == 1

    def test_alternating(self):
        assert detect_period(["a", "b", "a", "b", "a", "b"]) == 2

    def test_triplet(self):
        assert detect_period(["a", "b", "c", "a", "b", "c"]) == 3

    def test_no_period(self):
        assert detect_period(["a", "b", "c", "d"]) is None

    def test_period_at_tail_only(self):
        # Prefix is irregular but the tail repeats.
        assert detect_period(["x", "a", "b", "a", "b"]) == 2

    def test_too_short(self):
        assert detect_period(["a"]) is None

    def test_min_repeats(self):
        assert detect_period(["a", "b", "a", "b"], min_repeats=3) is None
        assert detect_period(["a"] * 6, min_repeats=3) == 1


class TestObservation:
    def test_new_record_created(self):
        extractor = KernelPatternExtractor()
        record = extractor.observe(A, 100.0, 0.01, 20.0)
        assert record.observations == 1
        assert extractor.num_records == 1

    def test_same_signature_updates_record(self):
        extractor = KernelPatternExtractor()
        extractor.observe(A, 100.0, 0.01, 20.0)
        record = extractor.observe(A, 200.0, 0.02, 25.0)
        assert extractor.num_records == 1
        assert record.observations == 2
        # EMA with weight 0.5: (100 + 200) / 2
        assert record.instructions == pytest.approx(150.0)
        assert record.last_time_s == 0.02

    def test_counter_feedback_blends(self):
        extractor = KernelPatternExtractor()
        extractor.observe(_counters(10.0), 1.0, 0.01, 1.0)
        record = extractor.observe(_counters(12.0), 1.0, 0.01, 1.0)
        assert record.counters.as_array()[0] == pytest.approx(11.0)

    def test_storage_accounting(self):
        extractor = KernelPatternExtractor()
        extractor.observe(A, 1.0, 0.01, 1.0)
        extractor.observe(B, 1.0, 0.01, 1.0)
        assert extractor.storage_bytes == 2 * BYTES_PER_RECORD


class TestReplayPrediction:
    def _profiled(self):
        extractor = KernelPatternExtractor()
        for counters in (A, B, B, C):
            extractor.observe(counters, 1.0, 0.01, 1.0)
        extractor.end_run()
        return extractor

    def test_profile_recorded_once(self):
        extractor = self._profiled()
        assert extractor.has_profile
        first_order = extractor.recorded_order
        extractor.observe(C, 1.0, 0.01, 1.0)
        extractor.end_run()
        assert extractor.recorded_order == first_order

    def test_expected_record_by_position(self):
        extractor = self._profiled()
        assert extractor.expected_record(0).signature == A.signature()
        assert extractor.expected_record(1).signature == B.signature()
        assert extractor.expected_record(3).signature == C.signature()

    def test_expected_record_out_of_range(self):
        assert self._profiled().expected_record(10) is None

    def test_expected_sequence(self):
        extractor = self._profiled()
        records = extractor.expected_sequence(1, 3)
        assert [r.signature for r in records] == [
            B.signature(), B.signature(), C.signature()
        ]

    def test_expected_sequence_negative_length(self):
        with pytest.raises(ValueError):
            self._profiled().expected_sequence(0, -1)


class TestOnlinePrediction:
    def test_periodic_prediction_without_profile(self):
        extractor = KernelPatternExtractor()
        for counters in (A, B, A, B):
            extractor.observe(counters, 1.0, 0.01, 1.0)
        # Next (index 4) should look like A, then B.
        assert extractor.expected_record(4).signature == A.signature()
        assert extractor.expected_record(5).signature == B.signature()

    def test_no_pattern_no_prediction(self):
        extractor = KernelPatternExtractor()
        extractor.observe(A, 1.0, 0.01, 1.0)
        extractor.observe(B, 1.0, 0.01, 1.0)
        assert extractor.expected_record(5) is None

    def test_last_record(self):
        extractor = KernelPatternExtractor()
        assert extractor.last_record() is None
        extractor.observe(A, 1.0, 0.01, 1.0)
        extractor.observe(B, 2.0, 0.02, 2.0)
        assert extractor.last_record().signature == B.signature()

    def test_end_run_clears_current_history(self):
        extractor = KernelPatternExtractor()
        extractor.observe(A, 1.0, 0.01, 1.0)
        extractor.end_run()
        assert extractor.last_record() is None
