"""Columnar (struct-of-arrays) encoding of a configuration space.

The decide hot path evaluates hundreds of candidate configurations per
kernel boundary.  Doing that one :class:`~repro.hardware.config.HardwareConfig`
dataclass at a time — ``replace()`` allocation, ``axis.index()`` scans,
per-row feature assembly — costs more than the model math itself.
:class:`ConfigTable` encodes a :class:`~repro.hardware.config.ConfigSpace`
*once* as numpy columns so the optimizer, the predictors, and the
ground-truth models can work on flat index arrays:

* one float64 column per hardware quantity (clocks, voltages, rail
  voltage, memory bandwidth, CU count),
* the static per-config block of the ML feature matrix (the seven
  hardware columns of :data:`repro.ml.dataset.FEATURE_NAMES`), and
* O(1) flat-index <-> config mapping plus pure-arithmetic knob stepping
  (strides instead of ``replace()``/``axis.index()``).

Flat order is exactly :meth:`ConfigSpace.all_configs` order (CPU
slowest-varying, CU fastest-varying), so ``table.configs[i]`` and
``space.all_configs()[i]`` always agree.

Every column is computed eagerly in ``__init__`` from the same scalar
``HardwareConfig`` properties the scalar path reads, so columnar math
over these columns is float-for-float identical to the scalar path.
Instances are plain data — safe to pickle into engine worker processes
(RL004) and stable under ``engine.fingerprint.describe()``: the
only derived state that depends on *usage* (the per-CPU-power-model
column memo) lives in a module-level ``WeakKeyDictionary``, never in
``__dict__``.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.config import KNOBS, ConfigSpace, HardwareConfig

__all__ = ["ConfigTable"]

#: Position of each knob in the canonical (cpu, nb, gpu, cu) order.
_KNOB_POS = {knob: position for position, knob in enumerate(KNOBS)}

#: Per-table memo of CPU-power columns, keyed by the CPU model's
#: ``(coef, static)`` coefficients.  Module-level (weak-keyed) rather
#: than an instance attribute so a warm table pickles and fingerprints
#: identically to a cold one.  Entries are plain dicts keyed by the
#: coefficient pair, so stale hits are impossible (a changed CPU model
#: is a different key).
_CPU_POWER_COLUMNS: "weakref.WeakKeyDictionary[ConfigTable, Dict[Tuple[float, float], np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


class ConfigTable:
    """A configuration set encoded as numpy struct-of-arrays.

    Build with :class:`ConfigSpace` for the full lattice (index grids
    and knob stepping included) or :meth:`from_configs` for an ad-hoc
    configuration list (columns only — used by the scalar-API wrappers).

    Attributes:
        space: The source space, or ``None`` for an ad-hoc table.
        configs: The configurations, in flat order.
        cpu_freq_ghz / cpu_voltage / nb_freq_ghz / memory_bw_gbps /
            gpu_freq_ghz / rail_voltage / cu_count: float64 columns.
        feature_block: ``(n, 7)`` static hardware block of the model
            feature matrix, columns in ``FEATURE_NAMES`` order.
        cpu_index / nb_index / gpu_index / cu_index: per-config knob
            axis indices (lattice tables only).
    """

    def __init__(self, space: ConfigSpace) -> None:
        self.space: Optional[ConfigSpace] = space
        self._init_columns(tuple(space.all_configs()))
        lengths = tuple(len(space.axis(knob)) for knob in KNOBS)
        n_cpu, n_nb, n_gpu, n_cu = lengths
        self._axis_lengths: Optional[Tuple[int, ...]] = lengths
        self._strides: Optional[Tuple[int, ...]] = (
            n_nb * n_gpu * n_cu, n_gpu * n_cu, n_cu, 1,
        )
        flat = np.arange(len(self.configs), dtype=np.intp)
        self.cpu_index = flat // self._strides[0]
        self.nb_index = (flat // self._strides[1]) % n_nb
        self.gpu_index = (flat // self._strides[2]) % n_gpu
        self.cu_index = flat % n_cu

    @classmethod
    def from_configs(cls, configs: Sequence[HardwareConfig]) -> "ConfigTable":
        """Columnar view of an arbitrary configuration list.

        No lattice structure: ``config_at`` and the columns work, the
        index-arithmetic helpers (stepping, ``index_of_config``) do not.
        """
        if not configs:
            raise ValueError("need at least one configuration")
        table = cls.__new__(cls)
        table.space = None
        table._axis_lengths = None
        table._strides = None
        table._init_columns(tuple(configs))
        return table

    def _init_columns(self, configs: Tuple[HardwareConfig, ...]) -> None:
        self.configs = configs
        self.cpu_freq_ghz = np.array([c.cpu_state.freq_ghz for c in configs])
        self.cpu_voltage = np.array([c.cpu_state.voltage for c in configs])
        self.nb_freq_ghz = np.array([c.nb_state.freq_ghz for c in configs])
        self.memory_bw_gbps = np.array([c.memory_bandwidth_gbps for c in configs])
        self.gpu_freq_ghz = np.array([c.gpu_state.freq_ghz for c in configs])
        self.rail_voltage = np.array([c.rail_voltage for c in configs])
        self.cu_count = np.array([float(c.cu) for c in configs])
        # Static hardware block of build_features(), FEATURE_NAMES order.
        self.feature_block = np.column_stack(
            [
                self.cpu_freq_ghz,
                self.cpu_voltage,
                self.nb_freq_ghz,
                self.memory_bw_gbps,
                self.gpu_freq_ghz,
                self.rail_voltage,
                self.cu_count,
            ]
        )
        # CPU power depends on the CPU P-state only; remember one
        # representative config per distinct P-state so a power column
        # is |P-states| scalar model calls plus one gather.
        codes = np.empty(len(configs), dtype=np.intp)
        seen: Dict[str, int] = {}
        representatives = []
        for i, config in enumerate(configs):
            code = seen.get(config.cpu)
            if code is None:
                code = seen[config.cpu] = len(representatives)
                representatives.append(config)
            codes[i] = code
        self._cpu_representatives: Tuple[HardwareConfig, ...] = tuple(representatives)
        self._cpu_state_codes = codes

    # ----- size and index <-> config mapping --------------------------------

    def __len__(self) -> int:
        return len(self.configs)

    def config_at(self, index: int) -> HardwareConfig:
        """The configuration at a flat index (O(1))."""
        return self.configs[index]

    def index_of_config(self, config: HardwareConfig) -> int:
        """Flat index of a configuration (O(1); lattice tables only).

        Raises:
            ValueError: If the config is off the lattice, or the table
                was built with :meth:`from_configs`.
        """
        space = self._require_lattice()
        strides = self._strides
        assert strides is not None
        return (
            strides[0] * space.index_of(KNOBS[0], config.cpu)
            + strides[1] * space.index_of(KNOBS[1], config.nb)
            + strides[2] * space.index_of(KNOBS[2], config.gpu)
            + strides[3] * space.index_of(KNOBS[3], config.cu)
        )

    def _require_lattice(self) -> ConfigSpace:
        if self.space is None:
            raise ValueError("ad-hoc ConfigTable has no lattice structure")
        return self.space

    # ----- index-space knob arithmetic ---------------------------------------

    @property
    def axis_lengths(self) -> Tuple[int, ...]:
        """Every knob's axis length, in ``KNOBS`` order (lattice tables only)."""
        self._require_lattice()
        assert self._axis_lengths is not None
        return self._axis_lengths

    def axis_length(self, knob: str) -> int:
        """Number of values on a knob's axis (lattice tables only)."""
        self._require_lattice()
        assert self._axis_lengths is not None
        return self._axis_lengths[_KNOB_POS[knob]]

    def axis_position(self, index: int, knob: str) -> int:
        """The knob's axis index at a flat config index."""
        self._require_lattice()
        assert self._strides is not None and self._axis_lengths is not None
        position = _KNOB_POS[knob]
        return (index // self._strides[position]) % self._axis_lengths[position]

    def set_knob(self, index: int, knob: str, axis_index: int) -> int:
        """Flat index with one knob moved to a given axis position."""
        self._require_lattice()
        assert self._strides is not None and self._axis_lengths is not None
        position = _KNOB_POS[knob]
        length = self._axis_lengths[position]
        if not 0 <= axis_index < length:
            raise ValueError(f"axis index {axis_index} off knob {knob!r} (len {length})")
        stride = self._strides[position]
        current = (index // stride) % length
        return index + (axis_index - current) * stride

    def cross(self, index: int) -> np.ndarray:
        """Flat indices of the rows within one knob move of ``index``.

        The configuration itself plus every other position of each
        knob's axis through it — ``1 + sum(len(axis) - 1)`` rows, 15 of
        the 336 on the Table-I lattice — in ascending order.
        """
        self._require_lattice()
        assert self._strides is not None and self._axis_lengths is not None
        rows = {index}
        for stride, length in zip(self._strides, self._axis_lengths):
            start = index - (index // stride) % length * stride
            rows.update(range(start, start + length * stride, stride))
        return np.array(sorted(rows), dtype=np.intp)

    def step_index(self, index: int, knob: str, direction: int) -> Optional[int]:
        """Step one knob by +-1 in index space; ``None`` off the axis end.

        The arithmetic twin of :meth:`ConfigSpace.step` — no dataclass
        allocation, no axis scan.
        """
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        self._require_lattice()
        assert self._strides is not None and self._axis_lengths is not None
        position = _KNOB_POS[knob]
        stride = self._strides[position]
        length = self._axis_lengths[position]
        moved = (index // stride) % length + direction
        if moved < 0 or moved >= length:
            return None
        return index + direction * stride

    # ----- derived columns ----------------------------------------------------

    def cpu_power_column(self, cpu_model) -> np.ndarray:
        """Per-config busy-wait CPU power under a calibrated CPU model.

        Computed as one scalar ``cpu_model.predict`` per distinct CPU
        P-state, gathered across the table — the same floats the scalar
        path produces, without the per-config Python loop.  Memoized
        per (table, model coefficients) outside the instance so usage
        never changes pickle/fingerprint state.

        Args:
            cpu_model: A :class:`repro.ml.predictors.CpuPowerModel`
                (duck-typed here to keep ``hardware`` below ``ml`` in
                the layering).
        """
        key = (cpu_model.coef_w_per_v2ghz, cpu_model.static_w)
        memo = _CPU_POWER_COLUMNS.get(self)
        if memo is None:
            memo = {}
            _CPU_POWER_COLUMNS[self] = memo
        column = memo.get(key)
        if column is None:
            per_state = np.array(
                [cpu_model.predict(config) for config in self._cpu_representatives]
            )
            column = per_state[self._cpu_state_codes]
            memo[key] = column
        return column
