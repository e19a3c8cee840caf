"""Hardware configurations and the searchable configuration space.

A :class:`HardwareConfig` is one point in the four-knob control space the
paper optimizes over: CPU P-state, NB state, GPU DPM state, and the
number of active GPU compute units.  :class:`ConfigSpace` enumerates the
336 configurations characterized by the paper (7 CPU x 4 NB x 3 GPU
DPM x 4 CU counts) and provides the knob-stepping primitives that the
greedy hill-climbing optimizer uses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.hardware import dvfs

__all__ = [
    "Knob", "HardwareConfig", "ConfigSpace", "FAILSAFE_CONFIG", "default_space",
]

#: The four hardware knobs, in the canonical order used throughout.
KNOBS: Tuple[str, ...] = ("cpu", "nb", "gpu", "cu")


class Knob:
    """Names of the four hardware knobs."""

    CPU = "cpu"
    NB = "nb"
    GPU = "gpu"
    CU = "cu"

    ALL: Tuple[str, ...] = KNOBS


@dataclass(frozen=True, order=True)
class HardwareConfig:
    """One hardware configuration: (CPU state, NB state, GPU state, CUs).

    Attributes:
        cpu: CPU P-state name (``"P1"`` fastest ... ``"P7"`` slowest).
        nb: NB state name (``"NB0"`` fastest ... ``"NB3"`` slowest).
        gpu: GPU DPM state name (``"DPM4"`` fastest ... ``"DPM0"``).
        cu: Number of active GPU compute units (2, 4, 6, or 8).
    """

    cpu: str
    nb: str
    gpu: str
    cu: int

    def __post_init__(self) -> None:
        if self.cpu not in dvfs.CPU_PSTATES:
            raise ValueError(f"unknown CPU P-state: {self.cpu!r}")
        if self.nb not in dvfs.NB_PSTATES:
            raise ValueError(f"unknown NB state: {self.nb!r}")
        if self.gpu not in dvfs.GPU_DPM_STATES:
            raise ValueError(f"unknown GPU DPM state: {self.gpu!r}")
        if self.cu not in dvfs.CU_COUNTS:
            raise ValueError(f"unsupported CU count: {self.cu!r}")

    @property
    def cpu_state(self) -> dvfs.DvfsState:
        """The CPU DVFS operating point."""
        return dvfs.CPU_PSTATES[self.cpu]

    @property
    def nb_state(self) -> dvfs.DvfsState:
        """The NB DVFS operating point."""
        return dvfs.NB_PSTATES[self.nb]

    @property
    def gpu_state(self) -> dvfs.DvfsState:
        """The GPU DVFS operating point."""
        return dvfs.GPU_DPM_STATES[self.gpu]

    @property
    def rail_voltage(self) -> float:
        """Voltage of the shared GPU/NB rail for this configuration."""
        return dvfs.rail_voltage(self.gpu, self.nb)

    @property
    def memory_bandwidth_gbps(self) -> float:
        """Peak DRAM bandwidth available in this configuration (GB/s)."""
        return dvfs.memory_bus_bandwidth_gbps(self.nb)

    def knob(self, name: str):
        """Return the value of the named knob (state name or CU count)."""
        if name not in KNOBS:
            raise ValueError(f"unknown knob: {name!r}")
        return getattr(self, name)

    def replace(self, **changes) -> "HardwareConfig":
        """Return a copy of this config with some knobs changed."""
        fields = {k: getattr(self, k) for k in KNOBS}
        fields.update(changes)
        return HardwareConfig(**fields)

    def as_dict(self) -> dict:
        """JSON-able knob mapping (used by session snapshots)."""
        return {"cpu": self.cpu, "nb": self.nb, "gpu": self.gpu, "cu": self.cu}

    @classmethod
    def from_dict(cls, payload: dict) -> "HardwareConfig":
        """Rebuild a configuration from :meth:`as_dict` output."""
        return cls(
            cpu=payload["cpu"],
            nb=payload["nb"],
            gpu=payload["gpu"],
            cu=int(payload["cu"]),
        )

    def __str__(self) -> str:
        return f"[{self.cpu}, {self.nb}, {self.gpu}, {self.cu} CUs]"


#: The empirically determined fail-safe configuration from the paper:
#: lowest CPU state, NB2, fastest GPU state, all compute units.
FAILSAFE_CONFIG = HardwareConfig(cpu="P7", nb="NB2", gpu="DPM4", cu=8)


class ConfigSpace:
    """The discrete space of hardware configurations searched at runtime.

    The default space matches the paper's characterization: all 7 CPU
    P-states, all 4 NB states, 3 of the 5 GPU DPM states, and CU counts
    2/4/6/8, i.e. 336 configurations.  Knob axes are ordered from the
    *slowest* (most power-frugal) value to the fastest, so "stepping a
    knob up" always means spending more power for more performance.
    """

    def __init__(
        self,
        cpu_states: Optional[Sequence[str]] = None,
        nb_states: Optional[Sequence[str]] = None,
        gpu_states: Optional[Sequence[str]] = None,
        cu_counts: Optional[Sequence[int]] = None,
    ) -> None:
        # Axes run slow -> fast.  CPU "P7" is the slowest P-state and
        # NB3 the slowest NB state, hence the reversed name ordering.
        self.cpu_axis: Tuple[str, ...] = tuple(
            cpu_states if cpu_states is not None else reversed(list(dvfs.CPU_PSTATES))
        )
        self.nb_axis: Tuple[str, ...] = tuple(
            nb_states if nb_states is not None else reversed(list(dvfs.NB_PSTATES))
        )
        self.gpu_axis: Tuple[str, ...] = tuple(
            gpu_states if gpu_states is not None else dvfs.SEARCHED_GPU_STATES
        )
        self.cu_axis: Tuple[int, ...] = tuple(
            cu_counts if cu_counts is not None else dvfs.CU_COUNTS
        )
        self._axes = {
            Knob.CPU: self.cpu_axis,
            Knob.NB: self.nb_axis,
            Knob.GPU: self.gpu_axis,
            Knob.CU: self.cu_axis,
        }
        for knob, axis in self._axes.items():
            if not axis:
                raise ValueError(f"empty axis for knob {knob!r}")
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate values on axis {knob!r}: {axis}")
        # Eager per-knob value -> axis-index maps and the enumerated
        # lattice, so index_of/step/all_configs are O(1) lookups instead
        # of linear scans / re-enumeration.  Built in __init__ (never
        # lazily) so instances have deterministic state for their whole
        # lifetime regardless of call history.
        self._value_index = {
            knob: {value: i for i, value in enumerate(axis)}
            for knob, axis in self._axes.items()
        }
        self._configs: Tuple[HardwareConfig, ...] = tuple(
            HardwareConfig(cpu=cpu, nb=nb, gpu=gpu, cu=cu)
            for cpu, nb, gpu, cu in itertools.product(
                self.cpu_axis, self.nb_axis, self.gpu_axis, self.cu_axis
            )
        )

    @property
    def lattice_key(self) -> Tuple[Tuple, ...]:
        """Hashable identity of the lattice: the four axes, ``KNOBS`` order.

        Spaces with equal keys enumerate the same configurations in the
        same order, so they share one lattice table and its sweeps.
        """
        return (self.cpu_axis, self.nb_axis, self.gpu_axis, self.cu_axis)

    def axis(self, knob: str) -> Tuple:
        """Return the (slow -> fast) axis of values for a knob."""
        try:
            return self._axes[knob]
        except KeyError:
            raise ValueError(f"unknown knob: {knob!r}") from None

    def __len__(self) -> int:
        return (
            len(self.cpu_axis)
            * len(self.nb_axis)
            * len(self.gpu_axis)
            * len(self.cu_axis)
        )

    def __iter__(self) -> Iterator[HardwareConfig]:
        return iter(self._configs)

    def __contains__(self, config: HardwareConfig) -> bool:
        return (
            config.cpu in self._value_index[Knob.CPU]
            and config.nb in self._value_index[Knob.NB]
            and config.gpu in self._value_index[Knob.GPU]
            and config.cu in self._value_index[Knob.CU]
        )

    def all_configs(self) -> List[HardwareConfig]:
        """All configurations in the space, as a list.

        Enumeration order is ``itertools.product`` over the axes with
        CPU slowest-varying and CU fastest-varying — the same flat order
        :class:`~repro.hardware.table.ConfigTable` encodes.  A fresh
        list is returned each call (the enumeration itself is cached).
        """
        return list(self._configs)

    def knob_cardinality_sum(self) -> int:
        """Sum of the knob axis lengths.

        This is the number of energy evaluations a full greedy pass over
        all knobs can require, the paper's
        ``|cpu| + |nb| + |gpu| + |cu|`` term (18 for the default space,
        a factor of ~19x fewer evaluations than the 336-point product).
        """
        return sum(len(a) for a in self._axes.values())

    def index_of(self, knob: str, value) -> int:
        """Index of a knob value along its (slow -> fast) axis."""
        try:
            return self._value_index[knob][value]
        except KeyError:
            axis = self.axis(knob)  # raises for an unknown knob
            raise ValueError(f"{value!r} not on axis {knob!r}: {axis}") from None

    def step(self, config: HardwareConfig, knob: str, direction: int) -> Optional[HardwareConfig]:
        """Step one knob of a config along its axis.

        Args:
            config: The starting configuration.
            knob: Which knob to move.
            direction: +1 to move toward the faster end of the axis,
                -1 toward the slower end.

        Returns:
            The neighbouring configuration, or ``None`` if the step
            would leave the axis.
        """
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        axis = self.axis(knob)
        idx = self.index_of(knob, config.knob(knob)) + direction
        if idx < 0 or idx >= len(axis):
            return None
        return config.replace(**{knob: axis[idx]})

    def fastest(self) -> HardwareConfig:
        """The all-knobs-maxed configuration (top of every axis)."""
        return HardwareConfig(
            cpu=self.cpu_axis[-1],
            nb=self.nb_axis[-1],
            gpu=self.gpu_axis[-1],
            cu=self.cu_axis[-1],
        )

    def slowest(self) -> HardwareConfig:
        """The all-knobs-minimum configuration (bottom of every axis)."""
        return HardwareConfig(
            cpu=self.cpu_axis[0],
            nb=self.nb_axis[0],
            gpu=self.gpu_axis[0],
            cu=self.cu_axis[0],
        )

    def clamp(self, config: HardwareConfig) -> HardwareConfig:
        """Snap a configuration onto this space.

        Each knob value not on its axis is replaced by the nearest axis
        value at or above it in performance order, falling back to the
        fastest axis value.  Used to map the fail-safe configuration
        into reduced spaces in tests.
        """
        changes = {}
        for knob in KNOBS:
            value = config.knob(knob)
            if value in self._value_index[knob]:
                continue
            axis = self.axis(knob)
            rank = _FULL_AXIS_RANK[knob][value]
            candidates = [v for v in axis if _FULL_AXIS_RANK[knob][v] >= rank]
            changes[knob] = candidates[0] if candidates else axis[-1]
        return config.replace(**changes) if changes else config


@functools.lru_cache(maxsize=1)
def default_space() -> ConfigSpace:
    """The default :class:`ConfigSpace`, built once per process.

    Every policy built without an explicit space searches this one
    object, so hosting a session enumerates no lattice.
    """
    return ConfigSpace()


#: Slow -> fast performance rank of every legal knob value over the
#: *full* hardware tables (all 5 GPU DPM states, not just the searched
#: subset).  ``clamp()`` ranks off-axis values against this instead of
#: building a throwaway full ConfigSpace per call.
_FULL_AXIS_RANK = {
    Knob.CPU: {name: i for i, name in enumerate(reversed(list(dvfs.CPU_PSTATES)))},
    Knob.NB: {name: i for i, name in enumerate(reversed(list(dvfs.NB_PSTATES)))},
    Knob.GPU: {name: i for i, name in enumerate(dvfs.GPU_DPM_STATES)},
    Knob.CU: {count: i for i, count in enumerate(dvfs.CU_COUNTS)},
}
