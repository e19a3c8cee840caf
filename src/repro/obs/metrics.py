"""Process-wide metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` names and owns every metric of one process.
All primitives are label-aware (one time series per label set), guarded
by a single registry lock, and **mergeable**:
:meth:`MetricsRegistry.drain` hands over what changed since the last
drain (new definitions, touched series under their canonical keys) and
clears it, and :meth:`MetricsRegistry.merge` adds a drain into another
registry (counters and histograms add, gauges take the incoming value,
and a ``sources`` count records how many registries contributed, so
provenance is never lost when fleet nodes and engine workers ship their
metrics back to the parent).  :meth:`MetricsRegistry.snapshot` is the
JSON-able whole-registry view the exporters render.

Instrumentation must cost nothing when disabled, so the module also
provides :data:`NULL_REGISTRY`: a registry whose factory methods hand
back shared no-op singletons without allocating.  Hot paths therefore
never branch on an "enabled" flag — they call the same methods on
either a real or a null object.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "label_key",
]

#: Version stamp of the snapshot payload layout.
SNAPSHOT_SCHEMA = 1

#: Version stamp of the drain payload layout.
DRAIN_SCHEMA = 1

#: Default histogram bucket upper bounds (seconds-flavoured, spanning
#: microsecond decisions to multi-second experiment tasks).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0,
)

#: Canonical label-set key: a sorted tuple of (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """The canonical key of a label set (what keyed writes take)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing of all labelled metric kinds.

    The ``**labels`` methods canonicalize and lock per call (rare
    writes); the keyed ``add`` / ``put`` take a key resolved once and
    run under a registry lock the caller holds (the launch fold).
    """

    kind = "metric"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, Any] = {}

    def series(self) -> Dict[LabelKey, Any]:
        """A point-in-time copy of every label set's value."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """A monotonically increasing labelled counter."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (must be non-negative) to a label set."""
        if value < 0:
            raise ValueError("counters can only increase")
        key = label_key(labels)
        with self._lock:
            self.add(key, value)

    def add(self, key: LabelKey, value: float = 1.0) -> None:
        """Add ``value`` to the series under ``key`` (lock held)."""
        series = self._series
        series[key] = series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0.0 when never touched)."""
        with self._lock:
            return self._series.get(label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A labelled value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set a label set to ``value``."""
        key = label_key(labels)
        with self._lock:
            self.put(key, value)

    def put(self, key: LabelKey, value: float) -> None:
        """Set the series under ``key`` to ``value`` (lock held)."""
        self._series[key] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Adjust a label set by ``value`` (may be negative)."""
        key = label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0.0 when never set)."""
        with self._lock:
            return self._series.get(label_key(labels), 0.0)


class Histogram(_Metric):
    """A fixed-bucket labelled histogram.

    Buckets are upper bounds (ascending); every observation lands in the
    first bucket whose bound is >= the value, or the implicit ``+Inf``
    overflow bucket.  Per label set the histogram keeps the per-bucket
    counts plus the running sum and count, which is exactly what the
    Prometheus text exposition needs.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly ascending")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into a label set."""
        key = label_key(labels)
        with self._lock:
            self.add(key, value)

    def add(self, key: LabelKey, value: float) -> None:
        """Record one observation into the series under ``key`` (lock held)."""
        state = self._series.get(key)
        if state is None:
            state = self._new_state(key)
        # The first bucket whose bound is >= value; NaN (no bound is)
        # lands in the overflow bucket.
        buckets = self.buckets
        state["counts"][
            bisect_left(buckets, value) if value == value else len(buckets)
        ] += 1
        state["sum"] += value
        state["count"] += 1

    def _merge(self, key: LabelKey, other: Dict[str, Any]) -> None:
        """Add another registry's state of one series (lock held)."""
        state = self._series.get(key)
        if state is None:
            state = self._new_state(key)
        state["counts"] = [a + b for a, b in zip(state["counts"], other["counts"])]
        state["sum"] += float(other["sum"])
        state["count"] += int(other["count"])

    def _new_state(self, key: LabelKey) -> Dict[str, Any]:
        state = self._series[key] = {
            "counts": [0] * (len(self.buckets) + 1),
            "sum": 0.0,
            "count": 0,
        }
        return state

    def count(self, **labels: Any) -> int:
        """Total observations of one label set."""
        with self._lock:
            state = self._series.get(label_key(labels))
            return state["count"] if state else 0

    def sum(self, **labels: Any) -> float:
        """Sum of observed values of one label set."""
        with self._lock:
            state = self._series.get(label_key(labels))
            return state["sum"] if state else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe, mergeable home of one process's metrics.

    Metric factories are idempotent: asking twice for the same name
    returns the same object; asking for an existing name as a different
    kind (or a histogram with different buckets) raises, because the
    merge and export layers rely on one stable definition per name.
    """

    enabled = True

    def __init__(self) -> None:
        #: The registry-wide lock every metric shares.  A launch fold
        #: holds it once around all of its keyed writes.
        self.lock = self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        # Definitions registered since the last drain, in order.
        self._fresh: List[Tuple[str, str, str, Optional[Tuple[float, ...]]]] = []
        #: How many registries' worth of data this one holds (grows by
        #: the incoming drain's ``sources`` on every :meth:`merge`).
        self.sources = 1

    # ----- factories -------------------------------------------------------------

    def _get(self, name: str, kind: type, help: str,
             buckets: Optional[Sequence[float]] = None) -> Any:
        # A registered metric is found without the lock (a dict read is
        # atomic); only a definition takes it, checking again under it.
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    return self._define(name, kind.kind, help, buckets)
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        if (
            buckets is not None
            and metric.buckets != tuple(float(b) for b in buckets)
        ):
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return metric

    def _define(self, name: str, kind: str, help: str,
                buckets: Optional[Sequence[float]]) -> _Metric:
        """Register a new metric (lock held); the next drain ships it."""
        if kind == "histogram":
            metric: _Metric = Histogram(name, help, self._lock, buckets=buckets)
            buckets = metric.buckets
        elif kind in _KINDS:
            metric = _KINDS[kind](name, help, self._lock)
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        self._metrics[name] = metric
        self._fresh.append((name, kind, help, buckets))
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The named counter, created on first use."""
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The named gauge, created on first use."""
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The named fixed-bucket histogram, created on first use."""
        return self._get(name, Histogram, help, buckets)

    def metrics(self) -> List[_Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ----- snapshot / drain / merge -----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The registry as a JSON-able dict (what the exporters render)."""
        out: Dict[str, Any] = {"schema": SNAPSHOT_SCHEMA, "sources": self.sources}
        metrics = []
        for metric in self.metrics():
            entry: Dict[str, Any] = {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "series": [
                    [[list(pair) for pair in key], value]
                    for key, value in sorted(metric.series().items())
                ],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            metrics.append(entry)
        out["metrics"] = metrics
        return out

    def drain(self) -> Dict[str, Any]:
        """The definitions and series written since the last drain
        (canonical keys, so :meth:`merge` never re-canonicalizes), then
        clear the series: successive drains are deltas.  One lock hold."""
        with self._lock:
            fresh, self._fresh = self._fresh, []
            series = []
            for name, metric in self._metrics.items():
                if metric._series:
                    series.append((name, list(metric._series.items())))
                    metric._series.clear()
            drained = {
                "schema": DRAIN_SCHEMA,
                "sources": self.sources,
                "definitions": fresh,
                "series": series,
            }
            self.sources = 1
        return drained

    def merge(self, drain: Dict[str, Any]) -> None:
        """Add a :meth:`drain`: counters and histograms accumulate,
        gauges take the incoming value, :attr:`sources` grows by the
        drain's.  One lock hold."""
        if drain.get("schema") != DRAIN_SCHEMA:
            raise ValueError(
                f"unsupported metrics drain schema: {drain.get('schema')!r}"
            )
        with self._lock:
            metrics = self._metrics
            for name, kind, help, buckets in drain["definitions"]:
                metric = metrics.get(name)
                if metric is None:
                    self._define(name, kind, help, buckets)
                elif metric.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}"
                    )
            for name, series in drain["series"]:
                metric = metrics[name]
                if metric.kind == "counter":
                    for key, value in series:
                        metric.add(key, value)
                elif metric.kind == "gauge":
                    for key, value in series:
                        metric.put(key, value)
                else:
                    for key, value in series:
                        metric._merge(key, value)
            self.sources += int(drain["sources"])

    def snapshot_and_reset(self) -> Dict[str, Any]:
        """:meth:`snapshot`, then clear every series (kept for
        perfbench's trace targets; shipping paths :meth:`drain`)."""
        snap = self.snapshot()
        self.drain()
        return snap


# ----- the no-op fast path ---------------------------------------------------


class _NullMetric:
    """A do-nothing stand-in for every metric kind; one shared instance."""

    name = ""
    help = ""
    kind = "null"
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def add(self, key: LabelKey, value: float = 1.0) -> None:
        pass

    def put(self, key: LabelKey, value: float) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def series(self) -> Dict[LabelKey, Any]:
        return {}


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """The disabled registry: every factory returns one shared no-op.

    Calling code never allocates on this path — the factories hand back
    the module-level singleton and every mutation is a ``pass``.
    """

    enabled = False
    sources = 0

    #: Shared lock so ``registry.lock`` is usable without branching.
    lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Any:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> Any:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Any:
        return _NULL_METRIC

    def metrics(self) -> List[Any]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {"schema": SNAPSHOT_SCHEMA, "sources": 0, "metrics": []}

    def drain(self) -> Dict[str, Any]:
        return {"schema": DRAIN_SCHEMA, "sources": 0, "definitions": [], "series": []}

    def snapshot_and_reset(self) -> Dict[str, Any]:
        return self.snapshot()

    def merge(self, drain: Dict[str, Any]) -> None:
        pass


#: Shared no-op registry; the default everywhere instrumentation is optional.
NULL_REGISTRY = NullMetricsRegistry()
