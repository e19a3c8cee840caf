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
* O(1) config -> flat-index mapping, plus every knob move of the
  lattice as flat indices in one :class:`MoveTable` per lattice shape.

Flat order is exactly :meth:`ConfigSpace.all_configs` order (CPU
slowest-varying, CU fastest-varying), so ``table.configs[i]`` and
``space.all_configs()[i]`` always agree.

Every column is computed eagerly in ``__init__`` from the
``HardwareConfig`` properties.  Instances are plain data — safe to
pickle into engine worker processes and stable under
``engine.fingerprint.describe()``: the only derived state that depends
on *usage* (the per-CPU-power-model column memo and the move tables)
lives in module-level memos, never in ``__dict__``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.config import KNOBS, ConfigSpace, HardwareConfig

__all__ = ["ConfigTable", "MoveTable", "lattice_table", "move_table"]


class MoveTable:
    """Every knob move of one lattice shape, as flat row indices.

    Built once per shape by :func:`move_table` from the table's stride
    arithmetic (CPU slowest-varying, CU fastest), so each entry names
    the rows :meth:`ConfigSpace.step` and the axis ends reach.

    Attributes:
        cross: Per row, the rows within one knob move of it, ascending.
        steps: Per row and knob position (``KNOBS`` order), the
            ``(down, up)`` neighbours one axis step away, ``None`` off
            the axis end.
        neighbours: Per row and knob position, the ``(side, row)`` pairs
            of ``steps`` that exist, down (side 0) before up (side 1).
        probes: Per row, both axis ends of every probed knob through
            it, ``(low, high)`` per knob in ``probe_knobs`` order.
        probe_knobs: ``(knob, position, length - 1)`` of every knob
            whose axis has two or more values.
    """

    __slots__ = ("cross", "steps", "neighbours", "probes", "probe_knobs")

    def __init__(self, lengths: Tuple[int, ...]) -> None:
        _, n_nb, n_gpu, n_cu = lengths
        strides = (n_nb * n_gpu * n_cu, n_gpu * n_cu, n_cu, 1)
        self.probe_knobs: Tuple[Tuple[str, int, int], ...] = tuple(
            (knob, position, length - 1)
            for position, (knob, length) in enumerate(zip(KNOBS, lengths))
            if length >= 2
        )
        self.cross: List[Tuple[int, ...]] = []
        self.steps: List[Tuple[Tuple[Optional[int], Optional[int]], ...]] = []
        self.neighbours: List[Tuple[Tuple[Tuple[int, int], ...], ...]] = []
        self.probes: List[Tuple[int, ...]] = []
        for index in range(lengths[0] * strides[0]):
            cross: List[int] = []
            steps = []
            neighbours = []
            ends = []
            for stride, length in zip(strides, lengths):
                # The knob's axis through this row runs from low to high.
                low = index - index // stride % length * stride
                high = low + (length - 1) * stride
                cross.extend(range(low, high + 1, stride))
                down = index - stride if index > low else None
                up = index + stride if index < high else None
                steps.append((down, up))
                options = []
                if down is not None:
                    options.append((0, down))
                if up is not None:
                    options.append((1, up))
                neighbours.append(tuple(options))
                ends.append((low, high))
            self.cross.append(tuple(sorted(set(cross))))
            self.steps.append(tuple(steps))
            self.neighbours.append(tuple(neighbours))
            self.probes.append(tuple(
                row for _, position, _ in self.probe_knobs for row in ends[position]
            ))


#: Move tables by lattice shape (axis lengths in ``KNOBS`` order).
#: Module-level, so every table of a shape shares one and no pickled or
#: described object holds it.
_MOVE_TABLES: Dict[Tuple[int, ...], MoveTable] = {}


def move_table(lengths: Tuple[int, ...]) -> MoveTable:
    """The shared :class:`MoveTable` of a lattice shape, built on first use."""
    table = _MOVE_TABLES.get(lengths)
    if table is None:
        table = _MOVE_TABLES[lengths] = MoveTable(lengths)
    return table


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

    Build with :class:`ConfigSpace` for the full lattice (flat-index
    lookup and knob moves included) or :meth:`from_configs` for an
    ad-hoc configuration list.

    Attributes:
        space: The source space, or ``None`` for an ad-hoc table.
        configs: The configurations, in flat order.
        cpu_freq_ghz / cpu_voltage / nb_freq_ghz / memory_bw_gbps /
            gpu_freq_ghz / rail_voltage / cu_count: float64 columns.
        feature_block: ``(n, 7)`` static hardware block of the model
            feature matrix, columns in ``FEATURE_NAMES`` order.
    """

    def __init__(self, space: ConfigSpace) -> None:
        self.space: Optional[ConfigSpace] = space
        self._init_columns(tuple(space.all_configs()))
        lengths = tuple(len(space.axis(knob)) for knob in KNOBS)
        _, n_nb, n_gpu, n_cu = lengths
        self._axis_lengths: Optional[Tuple[int, ...]] = lengths
        self._strides: Optional[Tuple[int, ...]] = (
            n_nb * n_gpu * n_cu, n_gpu * n_cu, n_cu, 1,
        )

    @classmethod
    def from_configs(cls, configs: Sequence[HardwareConfig]) -> "ConfigTable":
        """Columnar view of an arbitrary configuration list.

        Rows follow ``configs`` in order.  Every column, ``config_at``
        and the ground-truth and predictor evaluations work; the
        lattice lookups (``index_of_config``, ``moves``) raise.
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

    def moves(self) -> MoveTable:
        """Every knob move of this lattice, shared by its shape (lattice tables only)."""
        self._require_lattice()
        assert self._axis_lengths is not None
        return move_table(self._axis_lengths)

    def _require_lattice(self) -> ConfigSpace:
        if self.space is None:
            raise ValueError("ad-hoc ConfigTable has no lattice structure")
        return self.space

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


#: Lattice tables by :attr:`ConfigSpace.lattice_key`, built on first
#: use by :func:`lattice_table`.
_LATTICE_TABLES: Dict[Tuple[Tuple, ...], ConfigTable] = {}


def lattice_table(space: ConfigSpace) -> ConfigTable:
    """The shared :class:`ConfigTable` of a lattice, built on first use.

    Every optimizer searching one lattice reads one table, so the
    per-table memos (CPU power columns, the oracle's ground-truth
    matrices) are computed once per process, not once per session.
    """
    key = space.lattice_key
    table = _LATTICE_TABLES.get(key)
    if table is None:
        table = _LATTICE_TABLES[key] = ConfigTable(space)
    return table
