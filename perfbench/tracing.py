"""The traced run: spans recorded around each layer's public functions.

The recorder wraps functions of the ``repro`` sub-packages from the
benchmark's side (the program itself is not changed).  Every wrapped
call records a span (name, start, end, parent span, launch id) into
in-memory columns; counts that ratios need are taken in the same
wrappers.  Self time, per-layer totals and the unattributed remainder
are computed after the run, and the spans are written out at the end.

Forked fleet workers inherit the wrappers, but their spans stay in the
workers.  Worker-side layers are therefore attributed from a traced run
of the same trace on the inline transport, which the fleet's
process-equals-inline contract makes decision-identical; only the
``fleet.*`` metrics come from the process transport.
"""

from __future__ import annotations

import importlib
import pickle
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import overhead_pct, self_times

__all__ = [
    "FLEET_TARGETS",
    "LAYERS",
    "PassGroup",
    "Recorder",
    "TARGETS",
    "all_targets",
    "layer_metrics",
    "per_layer_report",
]

#: The repro sub-packages measured, in report order.
LAYERS = ("ml", "core", "runtime", "hardware", "workloads", "sim", "obs", "fleet")

#: (module, class or None for a module function, attribute) per layer.
TARGETS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "ml": (
        ("repro.ml.forest", "RandomForestRegressor", "predict"),
        ("repro.ml.predictors", "RandomForestPredictor", "estimate"),
        ("repro.ml.predictors", "RandomForestPredictor", "estimate_batch"),
        ("repro.ml.predictors", "RandomForestPredictor", "estimate_matrix"),
        ("repro.ml.predictors", "RandomForestPredictor", "estimate_matrix_many"),
        ("repro.ml.predictors", "OraclePredictor", "estimate"),
        ("repro.ml.predictors", "OraclePredictor", "estimate_batch"),
        ("repro.ml.predictors", "OraclePredictor", "estimate_matrix"),
    ),
    "core": (
        ("repro.core.manager", "MPCPowerManager", "begin_run"),
        ("repro.core.manager", "MPCPowerManager", "decide"),
        ("repro.core.manager", "MPCPowerManager", "observe"),
        ("repro.core.policies", "PPKPolicy", "decide"),
        ("repro.core.policies", "PPKPolicy", "observe"),
        ("repro.core.optimizer", "GreedyHillClimbOptimizer", "optimize_kernel"),
        ("repro.core.optimizer", "GreedyHillClimbOptimizer", "optimize_window"),
        ("repro.core.optimizer", "GreedyHillClimbOptimizer", "sweep_many"),
    ),
    "runtime": (
        ("repro.runtime.manager", "SessionManager", "dispatch"),
        ("repro.runtime.manager", "SessionManager", "step_batch"),
        ("repro.runtime.session", "SessionRuntime", "process"),
        ("repro.runtime.session", "SessionRuntime", "prefetch_counters"),
        ("repro.runtime.session", None, "throttle_to_cap"),
    ),
    "hardware": (
        ("repro.hardware.apu", "APUModel", "execute"),
        ("repro.hardware.apu", "APUModel", "execute_matrix"),
        ("repro.hardware.apu", "APUModel", "manager_measurement"),
        ("repro.hardware.apu", "APUModel", "kernel_power"),
    ),
    "workloads": (
        ("repro.workloads.counters", "CounterSynthesizer", "observe"),
        ("repro.workloads.counters", "CounterSynthesizer", "nominal"),
        # Module functions are wrapped where their callers look them up.
        ("repro.workloads.traces.replay", None, "trace_from_benchmark"),
        ("repro.experiments.bench_fleet", None, "build_serverless"),
    ),
    "sim": (
        ("repro.sim.simulator", "Simulator", "run"),
        ("repro.sim.turbocore", "TurboCorePolicy", "decide"),
    ),
    "obs": (
        ("repro.obs.tracing", "Tracer", "start_span"),
        ("repro.obs.tracing", "Tracer", "end_span"),
        ("repro.obs.tracing", "Tracer", "emit"),
        ("repro.obs.tracing", "Tracer", "drain"),
        ("repro.obs.health", "HealthMonitor", "observe_launch"),
        ("repro.obs.metrics", "MetricsRegistry", "merge"),
        ("repro.obs.metrics", "MetricsRegistry", "snapshot_and_reset"),
    ),
    "fleet": (
        ("repro.fleet.sim", "FleetSimulator", "run"),
        ("repro.fleet.shard", "ProcessShard", "post"),
        ("repro.fleet.shard", "ProcessShard", "collect"),
        ("repro.fleet.shard", "InlineShard", "post"),
        ("repro.fleet.shard", "InlineShard", "collect"),
        ("repro.fleet.budget", "BudgetAllocator", "apportion"),
        ("repro.fleet.node", "FleetNode", "add_session"),
        ("repro.fleet.node", "FleetNode", "step"),
        ("repro.fleet.node", "FleetNode", "demand"),
        ("repro.fleet.node", "FleetNode", "drain_obs"),
        ("repro.fleet.node", "FleetNode", "set_budget"),
        ("repro.fleet.node", "FleetNode", "stats"),
    ),
}

_DECIDES = ("MPCPowerManager.decide", "PPKPolicy.decide", "TurboCorePolicy.decide")


def _span_name(target: Tuple[str, Optional[str], str]) -> str:
    module, owner, attr = target
    return f"{owner}.{attr}" if owner else f"{module.rsplit('.', 1)[-1]}.{attr}"


#: The parent-side subset traced on the process transport: the forked
#: workers inherit only these, so worker timing stays nearly untraced.
FLEET_TARGETS = tuple(
    (layer, _span_name(target), target)
    for layer, target in (
        ("fleet", ("repro.fleet.sim", "FleetSimulator", "run")),
        ("fleet", ("repro.fleet.shard", "ProcessShard", "post")),
        ("fleet", ("repro.fleet.shard", "ProcessShard", "collect")),
        ("fleet", ("repro.fleet.budget", "BudgetAllocator", "apportion")),
        ("obs", ("repro.obs.metrics", "MetricsRegistry", "merge")),
        ("obs", ("repro.obs.tracing", "Tracer", "emit")),
    )
)


def all_targets() -> List[Tuple[str, str, Tuple[str, Optional[str], str]]]:
    """``(layer, span name, target)`` for every wrapped function."""
    return [
        (layer, _span_name(t), t) for layer in LAYERS for t in TARGETS[layer]
    ]


class Recorder:
    """In-memory span columns plus the counts taken at the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.launch = array("l")
        self._stack: List[int] = []
        self.launch_id = -1
        self.decide_depth = 0
        self.counts: Dict[str, float] = {}
        self._rows: Dict[Tuple[Any, Tuple[int, int]], Any] = {}
        self._table_keys: Dict[int, Tuple[Any, Tuple[int, int]]] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ----- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _rows_seen(self, counters: Any, table: Any, indices: Any) -> int:
        """Rows a predictor call traverses; tracks distinct rows too."""
        entry = self._table_keys.get(id(table))
        if entry is None:
            # Tables of one lattice are equal, so key them by content.
            # Holding the table keeps its id from being reused.
            entry = self._table_keys[id(table)] = (
                table, (len(table), hash(table.configs))
            )
        tkey = entry[1]
        key = (counters, tkey)
        if indices is None:
            self._rows[key] = True
            return tkey[0]
        seen = self._rows.get(key)
        if seen is not True:
            if seen is None:
                seen = self._rows[key] = set()
            seen.update(int(i) for i in indices)
        return len(indices)

    def reset_rows(self) -> None:
        """Start counting distinct rows afresh (once per traced pass)."""
        self._rows.clear()
        self._table_keys.clear()

    def distinct_rows(self) -> int:
        return sum(
            key[1][0] if seen is True else len(seen)
            for key, seen in self._rows.items()
        )

    def _hook(self, name: str) -> Optional[Callable[..., None]]:
        """Counts taken at a wrapper, before the wrapped call runs."""
        if name == "RandomForestRegressor.predict":
            def hook(args, kwargs):
                self.count("ml.predict_calls")
            return hook
        if name.endswith(".estimate_matrix"):
            def hook(args, kwargs):
                _self, counters, table, *rest = args
                indices = rest[0] if rest else kwargs.get("indices")
                rows = self._rows_seen(counters, table, indices)
                self.count("ml.rows", rows)
                if indices is None and self.decide_depth:
                    self.count("core.lazy_sweeps")
            return hook
        if name.endswith(".estimate_matrix_many"):
            def hook(args, kwargs):
                _self, counters_list, table, *rest = args
                indices = rest[0] if rest else kwargs.get("indices")
                rows = sum(
                    self._rows_seen(c, table, indices) for c in counters_list
                )
                self.count("ml.rows", rows)
                self.count("ml.stacked_rows", rows)
            return hook
        if name == "GreedyHillClimbOptimizer.optimize_kernel":
            return lambda args, kwargs: self.count("core.searches")
        if name == "SessionManager.step_batch":
            def hook(args, kwargs):
                self.count("runtime.batches")
                self.count("runtime.batched_launches", len(args[1]))
            return hook
        if name == "APUModel.kernel_power":
            return lambda args, kwargs: self.count("hardware.kernel_power_calls")
        if name == "Tracer.start_span":
            return lambda args, kwargs: self.count("obs.spans")
        if name == "ProcessShard.collect":
            return lambda args, kwargs: self.count("fleet.collects")
        if name == "ProcessShard.post":
            def hook(args, kwargs):
                self.count("fleet.bytes", len(pickle.dumps(
                    (args[1], args[2:]), pickle.HIGHEST_PROTOCOL)))
            return hook
        if name == "BudgetAllocator.apportion":
            return lambda args, kwargs: self.count("fleet.epochs")
        return None

    def _after(self, name: str) -> Optional[Callable[..., None]]:
        """Counts taken from a wrapped call's arguments and result."""
        if name == "session.throttle_to_cap":
            def after(args, result):
                if result != args[2]:
                    self.count("runtime.throttled")
            return after
        if name == "ProcessShard.collect":
            def after(args, result):
                self.count("fleet.bytes", sum(
                    len(pickle.dumps(("ok", r), pickle.HIGHEST_PROTOCOL))
                    for r in result
                ))
            return after
        if name == "SessionRuntime.process":
            def after(args, result):
                if result.record.fail_safe and not result.fallback:
                    self.count("core.failsafe_decisions")
            return after
        return None

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        nid = self._name_id(name, layer)
        hook = self._hook(name)
        after = self._after(name)
        decide = name in _DECIDES
        launch = name == "SessionRuntime.process"
        clock = time.perf_counter
        stack = self._stack
        start, end, parent = self.start, self.end, self.parent
        names, launches = self.name, self.launch
        rec = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if hook is not None:
                hook(args, kwargs)
            if launch:
                rec.launch_id += 1
            if decide:
                rec.decide_depth += 1
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            launches.append(rec.launch_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if decide:
                    rec.decide_depth -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ----- installing ----------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, Tuple[str, Optional[str], str]]]) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for layer, name, (module_name, owner_name, attr) in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, layer))
            self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ----- reading -------------------------------------------------------------

    def mark(self) -> int:
        """Position to slice the spans recorded from here on."""
        return len(self.start)

    def self_by_name(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, float]:
        """Summed self time (s) per span name over ``[lo, hi)``."""
        hi = len(self.start) if hi is None else hi
        parent = [p - lo if p >= lo else -1 for p in self.parent[lo:hi]]
        selfs = self_times(self.start[lo:hi], self.end[lo:hi], parent)
        out: Dict[str, float] = {}
        for nid, value in zip(self.name[lo:hi], selfs):
            key = self.names[nid]
            out[key] = out.get(key, 0.0) + value
        return out

    def inclusive_by_name(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, float]:
        """Summed duration (s) per span name over ``[lo, hi)``."""
        hi = len(self.start) if hi is None else hi
        out: Dict[str, float] = {}
        for i in range(lo, hi):
            key = self.names[self.name[i]]
            out[key] = out.get(key, 0.0) + self.end[i] - self.start[i]
        return out

    def root_time(self, lo: int = 0, hi: Optional[int] = None) -> float:
        """Summed duration of the spans with no parent in ``[lo, hi)``."""
        hi = len(self.start) if hi is None else hi
        return sum(
            self.end[i] - self.start[i]
            for i in range(lo, hi)
            if self.parent[i] < lo
        )

    def dump(self, path: str) -> None:
        """Write the spans out (a pickle of the columns)."""
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "names": self.names,
                    "layers": self.layer_of,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "name": self.name,
                    "launch": self.launch,
                },
                handle,
                pickle.HIGHEST_PROTOCOL,
            )


def layer_metrics(
    selfs: Dict[str, float],
    layer_of: Dict[str, str],
    wall_s: float,
    roots_s: float,
    launches: int,
) -> Dict[str, float]:
    """Per-layer self time per launch plus the unattributed remainder.

    ``layer.*`` values and ``layer.unattributed_ms_per_launch`` add up
    to ``trace.wall_ms_per_launch``: the spans' self times add up to
    the roots' durations, and the remainder is the wall time no root
    covers (the benchmark's own loop).
    """
    per = 1e3 / launches
    out = {f"layer.{layer}_ms_per_launch": 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        out[f"layer.{layer_of[name]}_ms_per_launch"] += seconds * per
    out["layer.unattributed_ms_per_launch"] = (wall_s - roots_s) * per
    out["trace.wall_ms_per_launch"] = wall_s * per
    return out


class PassGroup:
    """Traced or untraced passes of one kind, summed."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.launches = 0
        self.workers_cpu_s = 0.0
        self.ranges: List[Tuple[int, int]] = []
        self.counts: Dict[str, float] = {}
        self.unique_shares: List[float] = []

    def add(self, result: Any, span_range: Optional[Tuple[int, int]] = None,
            counts: Optional[Dict[str, float]] = None,
            unique_share: Optional[float] = None) -> None:
        self.wall_s += result.wall_s
        self.launches += result.launches
        self.workers_cpu_s += result.workers_cpu_s
        if span_range is not None:
            self.ranges.append(span_range)
        for key, value in (counts or {}).items():
            self.counts[key] = self.counts.get(key, 0.0) + value
        if unique_share is not None:
            self.unique_shares.append(unique_share)

    @property
    def ms_per_launch(self) -> float:
        return 1e3 * self.wall_s / self.launches


def _sum_by_name(rec: Recorder, ranges: Sequence[Tuple[int, int]],
                 inclusive: bool = False) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for lo, hi in ranges:
        part = rec.inclusive_by_name(lo, hi) if inclusive else rec.self_by_name(lo, hi)
        for key, value in part.items():
            out[key] = out.get(key, 0.0) + value
    return out


def per_layer_report(
    rec: Recorder,
    setup: Tuple[int, int],
    traced: PassGroup,
    untraced: PassGroup,
    fleet_traced: Optional[PassGroup] = None,
    fleet_untraced: Optional[PassGroup] = None,
    nodes: int = 0,
) -> Dict[str, float]:
    """Every per-layer metric of a traced run.

    ``traced`` holds the fully traced passes and ``untraced`` their
    untraced twins (same transport), which give the overhead figure.
    On ``fleet`` the process-transport passes with only the parent-side
    wrappers (``fleet_traced``) and without any (``fleet_untraced``)
    give the ``fleet.*`` metrics; elsewhere those are 0.
    """
    selfs = _sum_by_name(rec, traced.ranges)
    layer_of = dict(zip(rec.names, rec.layer_of))
    roots = sum(rec.root_time(lo, hi) for lo, hi in traced.ranges)
    launches = traced.launches
    per = 1e3 / launches
    counts = traced.counts

    def ms(*names: str) -> float:
        return sum(selfs.get(n, 0.0) for n in names) * per

    def ratio(key: str, base: float) -> float:
        return counts.get(key, 0.0) / base if base else 0.0

    ml_names = [n for n, layer in layer_of.items() if layer == "ml"]
    rows = counts.get("ml.rows", 0.0)
    out: Dict[str, float] = {
        "ml.forest_ms_per_launch": ms("RandomForestRegressor.predict"),
        "ml.predictor_ms_per_launch": ms(
            *[n for n in ml_names if n != "RandomForestRegressor.predict"]
        ),
        "ml.predict_calls_per_launch": ratio("ml.predict_calls", launches),
        "ml.rows_per_launch": ratio("ml.rows", launches),
        "ml.unique_row_share": (
            sum(traced.unique_shares) / len(traced.unique_shares)
            if rows and traced.unique_shares
            else 0.0
        ),
        "ml.stacked_share": ratio("ml.stacked_rows", rows),
        "core.decide_ms_per_launch": ms("MPCPowerManager.decide", "PPKPolicy.decide"),
        "core.search_ms_per_launch": ms(
            "GreedyHillClimbOptimizer.optimize_kernel",
            "GreedyHillClimbOptimizer.optimize_window",
        ),
        "core.searches_per_launch": ratio("core.searches", launches),
        "core.lazy_sweeps_per_launch": ratio("core.lazy_sweeps", launches),
        "core.failsafe_share": ratio("core.failsafe_decisions", launches),
        "runtime.self_ms_per_launch": ms(
            "SessionManager.dispatch", "SessionManager.step_batch",
            "SessionRuntime.process",
        ),
        "runtime.prefetch_ms_per_launch": ms("SessionRuntime.prefetch_counters"),
        "runtime.throttle_ms_per_launch": ms("session.throttle_to_cap"),
        "runtime.batch_size": ratio(
            "runtime.batched_launches", counts.get("runtime.batches", 0.0)
        ),
        "runtime.throttled_share": ratio("runtime.throttled", launches),
        "hardware.execute_ms_per_launch": ms(
            "APUModel.execute", "APUModel.manager_measurement"
        ),
        "hardware.matrix_ms_per_launch": ms("APUModel.execute_matrix"),
        "hardware.kernel_power_calls_per_launch": ratio(
            "hardware.kernel_power_calls", launches
        ),
        "workloads.counters_ms_per_launch": ms(
            "CounterSynthesizer.observe", "CounterSynthesizer.nominal"
        ),
        "obs.tracing_ms_per_launch": ms(
            "Tracer.start_span", "Tracer.end_span", "Tracer.emit", "Tracer.drain"
        ),
        "obs.health_ms_per_launch": ms("HealthMonitor.observe_launch"),
        "obs.merge_ms_per_launch": ms(
            "MetricsRegistry.merge", "MetricsRegistry.snapshot_and_reset"
        ),
        "obs.spans_per_launch": ratio("obs.spans", launches),
    }

    setup_selfs = _sum_by_name(rec, [setup])
    setup_incl = _sum_by_name(rec, [setup], inclusive=True)
    out["workloads.generate_s"] = sum(
        setup_selfs.get(n, 0.0)
        for n in ("replay.trace_from_benchmark", "bench_fleet.build_serverless")
    )
    out["sim.targets_s"] = setup_incl.get("Simulator.run", 0.0)

    fleet = {
        "fleet.round_trips_per_epoch": 0.0,
        "fleet.post_ms_per_epoch": 0.0,
        "fleet.wait_ms_per_epoch": 0.0,
        "fleet.merge_ms_per_epoch": 0.0,
        "fleet.allocate_ms_per_epoch": 0.0,
        "fleet.bytes_per_launch": 0.0,
        "fleet.worker_busy_share": 0.0,
    }
    if fleet_traced is not None and fleet_traced.counts.get("fleet.epochs"):
        epochs = fleet_traced.counts["fleet.epochs"]
        incl = _sum_by_name(rec, fleet_traced.ranges, inclusive=True)
        fleet.update({
            "fleet.round_trips_per_epoch":
                fleet_traced.counts.get("fleet.collects", 0.0) / (nodes * epochs),
            "fleet.post_ms_per_epoch": 1e3 * incl.get("ProcessShard.post", 0.0) / epochs,
            "fleet.wait_ms_per_epoch": 1e3 * incl.get("ProcessShard.collect", 0.0) / epochs,
            "fleet.merge_ms_per_epoch": 1e3 * (
                incl.get("MetricsRegistry.merge", 0.0) + incl.get("Tracer.emit", 0.0)
            ) / epochs,
            "fleet.allocate_ms_per_epoch":
                1e3 * incl.get("BudgetAllocator.apportion", 0.0) / epochs,
            "fleet.bytes_per_launch":
                fleet_traced.counts.get("fleet.bytes", 0.0) / fleet_traced.launches,
        })
    if fleet_untraced is not None and fleet_untraced.wall_s:
        fleet["fleet.worker_busy_share"] = fleet_untraced.workers_cpu_s / (
            nodes * fleet_untraced.wall_s
        )
    out.update(fleet)

    out.update(layer_metrics(selfs, layer_of, traced.wall_s, roots, launches))
    out["trace.overhead_pct"] = overhead_pct(
        traced.ms_per_launch, untraced.ms_per_launch
    )
    return out
