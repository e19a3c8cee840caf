"""The benchmark's own arithmetic: percentiles, host factors, self time, digests, failures.

Pure functions over plain data, so the tests in ``tests/`` pin them
without building a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TAIL_LADDER",
    "FailureCount",
    "count_failures",
    "decision_digest",
    "host_factors",
    "nearest_rank",
    "overhead_pct",
    "self_times",
    "tail_percentile",
]

#: Percentiles the tail latency is read at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Calibration blocks whose median gives a segment's host speed: the
#: two on either side of the segment.
HOST_WINDOW = 4


def nearest_rank(ordered: Sequence[float], pct: float) -> Tuple[float, int]:
    """The nearest-rank ``pct`` percentile of sorted samples.

    Returns the value and how many samples lie beyond its rank.
    """
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: Iterable[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with enough samples beyond it.

    Returns ``(percentile, value, samples_beyond)``.

    Raises:
        ValueError: When even the median has fewer than
            ``TAIL_MIN_BEYOND`` samples beyond it.
    """
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    raise ValueError(
        f"{len(ordered)} samples leave fewer than {TAIL_MIN_BEYOND} beyond "
        "every tail percentile"
    )


def host_factors(blocks: Sequence[Tuple[int, float]], n_samples: int,
                 ref_s: float) -> List[float]:
    """Per-sample factors that state host times at the reference speed.

    ``blocks`` are one pass's calibration blocks in the order they ran,
    as ``(position, seconds)``: the block ran just before sample
    ``position`` (``n_samples`` for a block after the last sample).
    The samples between block ``k`` and block ``k + 1`` form segment
    ``k``; its factor is ``ref_s`` over the median time of blocks
    ``k - 1`` to ``k + 2`` (fewer at either end of the pass).  With no
    blocks every factor is 1: the times stay as measured.
    """
    if not blocks:
        return [1.0] * n_samples
    if blocks[0][0] != 0:
        raise ValueError("the first calibration block must precede sample 0")
    half = HOST_WINDOW // 2
    seconds = [s for _, s in blocks]
    out = []
    k = 0
    for i in range(n_samples):
        while k + 1 < len(blocks) and blocks[k + 1][0] <= i:
            k += 1
        window = seconds[max(0, k - half + 1):k + half + 1]
        out.append(ref_s / statistics.median(window))
    return out


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are given as parallel columns; ``parent[i]`` is the index of
    span ``i``'s parent, or -1 for a root.  The covered part is the
    union of the children's intervals clipped to the span, so children
    that overlap each other are not counted twice.
    """
    n = len(start)
    children: Dict[int, List[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], reach), min(end[c], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append((hi - lo) - covered)
    return out


def overhead_pct(traced_ms_per_launch: float,
                 untraced_ms_per_launch: float) -> float:
    """How much slower the traced passes ran than the untraced ones, in %."""
    if untraced_ms_per_launch <= 0:
        raise ValueError("untraced time per launch must be positive")
    return 100.0 * (traced_ms_per_launch / untraced_ms_per_launch - 1.0)


def decision_digest(decisions: Iterable[Any]) -> str:
    """Digest of one session's decision stream.

    Each decision contributes its ``as_dict()``: the configuration and
    every field the trace replayer compares, floats in their exact
    ``repr`` form.
    """
    h = hashlib.sha256()
    for decision in decisions:
        h.update(json.dumps(decision.as_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:20]


class FailureCount:
    """Launches attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons[reason] = self.reasons.get(reason, 0) + failed

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0


def count_failures(
    launches: Mapping[str, int],
    digests: Mapping[str, str],
    faults: Mapping[str, int],
    reference: Optional[Mapping[str, str]],
    into: FailureCount,
) -> None:
    """Fold one pass's sessions into ``into``.

    A session whose digest differs from the reference (or that is
    missing from either side) fails all of its launches.  Otherwise its
    fault launches (runtime fallbacks, observe faults) fail.  Fail-safe
    decisions the policy made itself are part of the digest and are
    outcomes, never failures.
    """
    for sid in sorted(set(launches) | set(reference or ())):
        n = launches.get(sid, 0)
        if reference is not None and digests.get(sid) != reference.get(sid):
            into.add(n, n, "decision differs from reference")
            continue
        bad = min(n, faults.get(sid, 0))
        into.add(n, bad, "fault fallback or observe fault")
