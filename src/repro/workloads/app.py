"""Applications: ordered sequences of GPU kernel invocations.

A GPGPU application, for power-management purposes, is the ordered list
of kernel launches it performs (Figure 1 of the paper: CPU phases
interleaved with GPU kernels; the paper — and this reproduction —
optimizes the GPU kernel phases).  The paper describes each benchmark's
launch sequence with a regular expression such as ``A10B10C10`` (Spmv)
or ``AB20`` (kmeans); :class:`Application` stores both the expanded
sequence and that pattern string.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.workloads.kernel import KernelSpec

__all__ = ["Category", "Application"]


class Category(enum.Enum):
    """Benchmark categories from Table IV."""

    REGULAR = "regular"
    IRREGULAR_REPEATING = "irregular w/ repeating pattern"
    IRREGULAR_NON_REPEATING = "irregular w/ non-repeating pattern"
    IRREGULAR_INPUT_VARYING = "irregular w/ kernels varying with input"

    @property
    def is_regular(self) -> bool:
        """Whether this category is the paper's "regular" class."""
        return self is Category.REGULAR


@dataclass(frozen=True)
class Application:
    """One GPGPU application: a named sequence of kernel launches.

    Attributes:
        name: Benchmark name, e.g. ``"Spmv"``.
        suite: Originating benchmark suite, e.g. ``"SHOC"``.
        category: Table IV category of the benchmark.
        kernels: The launch sequence, one :class:`KernelSpec` per
            invocation, in execution order.
        pattern: The paper's regular-expression description of the
            sequence (``"A10B10C10"``), for reporting.
    """

    name: str
    suite: str
    category: Category
    kernels: Tuple[KernelSpec, ...]
    pattern: str = ""

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("application must launch at least one kernel")
        object.__setattr__(self, "kernels", tuple(self.kernels))
        # A kernel key must denote one behaviour: everything downstream
        # (the TO solver, the pattern store) groups launches by key.
        by_key: Dict[str, KernelSpec] = {}
        for spec in self.kernels:
            first = by_key.setdefault(spec.key, spec)
            if first != spec:
                raise ValueError(
                    f"kernels with key {spec.key!r} differ; give distinct "
                    "inputs distinct input_id values"
                )

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self) -> Iterator[KernelSpec]:
        return iter(self.kernels)

    @property
    def num_invocations(self) -> int:
        """Number of kernel launches (the paper's N)."""
        return len(self.kernels)

    @property
    def unique_kernels(self) -> List[KernelSpec]:
        """Distinct (kernel, input) identities, in first-seen order."""
        seen: Dict[str, KernelSpec] = {}
        for spec in self.kernels:
            seen.setdefault(spec.key, spec)
        return list(seen.values())

    @property
    def total_instructions(self) -> float:
        """Total instructions across all launches (the paper's I_total)."""
        return sum(spec.instructions for spec in self.kernels)

    def letter_sequence(self) -> List[str]:
        """Kernel identities mapped to letters A, B, C... in first-seen order.

        Useful for checking an application against its declared pattern.
        """
        letters: Dict[str, str] = {}
        out = []
        for spec in self.kernels:
            base = spec.name
            if base not in letters:
                letters[base] = chr(ord("A") + len(letters))
            out.append(letters[base])
        return out

    def __str__(self) -> str:
        return f"Application({self.name}, N={self.num_invocations}, pattern={self.pattern})"


def expand_pattern(segments: Sequence[Tuple[KernelSpec, int]]) -> List[KernelSpec]:
    """Expand (kernel, repeat-count) segments into a launch sequence.

    Args:
        segments: Sequence of ``(spec, count)`` pairs.

    Returns:
        The flattened launch list.
    """
    sequence: List[KernelSpec] = []
    for spec, count in segments:
        if count <= 0:
            raise ValueError(f"repeat count must be positive, got {count}")
        sequence.extend([spec] * count)
    return sequence
