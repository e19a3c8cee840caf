"""Kernel pattern extractor (Section IV-A2).

GPGPU applications launch kernels in regular orders; the paper's
framework identifies kernels by a *signature* — each of the eight
Table-III counters binned as ``floor(log u)`` — and maintains an indexed
list of kernel records.  The extractor:

1. builds the kernel execution list over time,
2. identifies kernel signatures, and
3. passes expected future kernels (and their stored counters and
   instruction counts) to the optimizer.

On an application's first invocation the framework has no stored
knowledge; it runs PPK while this extractor records the execution order
("At this initial stage, our MPC framework simply runs PPK while it
dynamically extracts the pattern").  On later invocations the recorded
order *is* the prediction of the future, and per-signature stores are
refreshed with counter feedback after every launch (an exponential
moving average).

:func:`detect_period` implements the Totoni-style repetitive-pattern
detection used to recognize that behaviour has become periodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.counters import CounterVector

__all__ = ["KernelRecord", "KernelPatternExtractor", "detect_period"]

#: Stored bytes per dissimilar kernel: 8 counters + time + power, as
#: double-precision values (the paper's storage-cost accounting).
BYTES_PER_RECORD = 80


def detect_period(sequence: Sequence, min_repeats: int = 2) -> Optional[int]:
    """Smallest period of a trailing repetitive pattern, if any.

    Args:
        sequence: Hashable items (kernel signatures) in execution order.
        min_repeats: How many complete repetitions are required before a
            period is accepted.

    Returns:
        The period length, or ``None`` when no period of at least
        ``min_repeats`` repetitions ends the sequence.
    """
    n = len(sequence)
    if n < min_repeats:
        return None
    for period in range(1, n // min_repeats + 1):
        tail = list(sequence[n - period:])
        repeats = 1
        pos = n - 2 * period
        while pos >= 0 and list(sequence[pos:pos + period]) == tail:
            repeats += 1
            pos -= period
        if repeats >= min_repeats:
            return period
    return None


@dataclass
class KernelRecord:
    """Stored knowledge about one dissimilar kernel.

    Attributes:
        signature: The log-binned counter signature identifying it.
        counters: Stored counters, refreshed by feedback after each
            launch of this kernel.
        instructions: Expected instruction count (EMA of observations).
        last_time_s: Most recently measured execution time.
        last_gpu_power_w: Most recently measured GPU-rail power.
        observations: How many times this kernel has been seen.
    """

    signature: Tuple[int, ...]
    counters: CounterVector
    instructions: float
    last_time_s: float = 0.0
    last_gpu_power_w: float = 0.0
    observations: int = 0


class KernelPatternExtractor:
    """Signature store + execution-order recorder + future predictor.

    Args:
        feedback_weight: Weight of a fresh observation in the stored
            counter/instruction EMA update.
    """

    def __init__(self, feedback_weight: float = 0.5) -> None:
        if not 0.0 < feedback_weight <= 1.0:
            raise ValueError("feedback_weight must be in (0, 1]")
        self.feedback_weight = feedback_weight
        self._records: Dict[Tuple[int, ...], KernelRecord] = {}
        self._current_run: List[Tuple[int, ...]] = []
        self._recorded_order: Optional[List[Tuple[int, ...]]] = None

    # ----- observation --------------------------------------------------------

    def observe(self, counters: CounterVector, instructions: float,
                time_s: float, gpu_power_w: float) -> KernelRecord:
        """Ingest telemetry of the launch that just completed.

        Returns:
            The (created or updated) record for the kernel.
        """
        signature = counters.signature()
        record = self._records.get(signature)
        if record is None:
            record = KernelRecord(
                signature=signature,
                counters=counters,
                instructions=instructions,
            )
            self._records[signature] = record
        else:
            w = self.feedback_weight
            record.counters = record.counters.blended_with(counters, w)
            record.instructions = (1 - w) * record.instructions + w * instructions
        record.last_time_s = time_s
        record.last_gpu_power_w = gpu_power_w
        record.observations += 1
        self._current_run.append(signature)
        return record

    def end_run(self) -> None:
        """Conclude the current application invocation.

        The first completed invocation's execution order becomes the
        stored profile used to predict future invocations.
        """
        if self._recorded_order is None and self._current_run:
            self._recorded_order = list(self._current_run)
        self._current_run = []

    # ----- queries -------------------------------------------------------------

    @property
    def has_profile(self) -> bool:
        """Whether a full execution order has been recorded."""
        return self._recorded_order is not None

    @property
    def num_records(self) -> int:
        """Number of dissimilar kernels stored."""
        return len(self._records)

    @property
    def storage_bytes(self) -> int:
        """Store size under the paper's 80-bytes-per-kernel accounting."""
        return BYTES_PER_RECORD * len(self._records)

    @property
    def recorded_order(self) -> Optional[List[Tuple[int, ...]]]:
        """The profiled execution order (signatures), if recorded."""
        if self._recorded_order is None:
            return None
        return list(self._recorded_order)

    def lookup(self, signature: Tuple[int, ...]) -> Optional[KernelRecord]:
        """The stored record for a signature, if any."""
        return self._records.get(signature)

    def last_record(self) -> Optional[KernelRecord]:
        """Record of the most recent launch in the current run."""
        if not self._current_run:
            return None
        return self._records.get(self._current_run[-1])

    def expected_record(self, index: int) -> Optional[KernelRecord]:
        """Predicted record for execution position ``index``.

        Predictions come from the recorded profile when one exists;
        otherwise from a detected repeating period of the current run's
        signature history; otherwise ``None`` (unknown future).
        """
        if self._recorded_order is not None:
            if 0 <= index < len(self._recorded_order):
                return self._records.get(self._recorded_order[index])
            return None
        period = detect_period(self._current_run)
        if period is None:
            return None
        seen = len(self._current_run)
        if index < seen:
            return self._records.get(self._current_run[index])
        offset = (index - (seen - period)) % period
        return self._records.get(self._current_run[seen - period + offset])

    def expected_sequence(self, start: int, length: int) -> List[Optional[KernelRecord]]:
        """Predicted records for positions ``start .. start+length-1``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return [self.expected_record(start + offset) for offset in range(length)]

    # ----- migration -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The store, current run, and profile as a JSON-able dict.

        Records are serialized in insertion order so a restored store
        iterates identically to the original.
        """
        return {
            "records": [
                {
                    "signature": list(record.signature),
                    "counters": [float(v) for v in record.counters.as_array()],
                    "instructions": record.instructions,
                    "last_time_s": record.last_time_s,
                    "last_gpu_power_w": record.last_gpu_power_w,
                    "observations": record.observations,
                }
                for record in self._records.values()
            ],
            "current_run": [list(sig) for sig in self._current_run],
            "recorded_order": (
                None
                if self._recorded_order is None
                else [list(sig) for sig in self._recorded_order]
            ),
        }

    def restore(self, payload: dict) -> None:
        """Rebuild the store from :meth:`snapshot` output.

        ``feedback_weight`` is a constructor argument and is not part
        of the snapshot; restore onto an extractor built with the same
        arguments.
        """
        self._records = {}
        for entry in payload["records"]:
            signature = tuple(int(b) for b in entry["signature"])
            self._records[signature] = KernelRecord(
                signature=signature,
                counters=CounterVector.from_array(entry["counters"]),
                instructions=float(entry["instructions"]),
                last_time_s=float(entry["last_time_s"]),
                last_gpu_power_w=float(entry["last_gpu_power_w"]),
                observations=int(entry["observations"]),
            )
        self._current_run = [
            tuple(int(b) for b in sig) for sig in payload["current_run"]
        ]
        recorded = payload["recorded_order"]
        self._recorded_order = (
            None
            if recorded is None
            else [tuple(int(b) for b in sig) for sig in recorded]
        )
