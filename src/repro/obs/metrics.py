"""Process-wide metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` names and owns every metric of one process.
All primitives are label-aware (one time series per label set), guarded
by a single registry lock, and — crucially for the experiment engine —
**mergeable**: :meth:`MetricsRegistry.snapshot` captures a registry as a
JSON-able dict that travels across a ``ProcessPoolExecutor`` boundary,
and :meth:`MetricsRegistry.merge` folds such a snapshot into another
registry (counters and histograms add, gauges take the incoming value,
and a ``sources`` count records how many registries contributed, so
provenance is never lost when worker metrics are shipped back to the
parent).

Instrumentation must cost nothing when disabled, so the module also
provides :data:`NULL_REGISTRY`: a registry whose factory methods hand
back shared no-op singletons without allocating.  Hot paths therefore
never branch on an "enabled" flag — they call the same methods on
either a real or a null object.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "BoundCounter",
    "BoundGauge",
    "BoundHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

#: Version stamp of the snapshot payload layout.
SNAPSHOT_SCHEMA = 1

#: Default histogram bucket upper bounds (seconds-flavoured, spanning
#: microsecond decisions to multi-second experiment tasks).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0,
)

#: Canonical label-set key: a sorted tuple of (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Bound:
    """One label set of a metric with its key pre-resolved.

    The ``**labels`` API canonicalizes (stringify + sort) the label set
    on every call; hot paths that hit the same series thousands of
    times per second (the health monitor's per-decision counters) bind
    the series once via :meth:`_Metric.labelled` and mutate the parent
    metric's storage directly — snapshot/merge/exposition are
    unaffected, only the per-call label work disappears.

    Every update is written once, here: the labelled metric calls and
    :meth:`MetricsRegistry.merge` write through bound handles too.
    """

    __slots__ = ("_lock", "_series", "_key")

    def __init__(self, metric: "_Metric", key: LabelKey) -> None:
        self._lock = metric._lock
        self._series = metric._series
        self._key = key


class BoundCounter(_Bound):
    """Pre-resolved counter series (monotonic)."""

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        with self._lock:
            self.inc_unlocked(value)

    def inc_unlocked(self, value: float = 1.0) -> None:
        """:meth:`inc` for callers already holding the registry lock."""
        if value < 0:
            raise ValueError("counters can only increase")
        series, key = self._series, self._key
        series[key] = series.get(key, 0.0) + value


class BoundGauge(_Bound):
    """Pre-resolved gauge series."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self.set_unlocked(value)

    def set_unlocked(self, value: float) -> None:
        """:meth:`set` for callers already holding the registry lock."""
        self._series[self._key] = float(value)

    def inc(self, value: float = 1.0) -> None:
        series, key = self._series, self._key
        with self._lock:
            series[key] = series.get(key, 0.0) + value


class BoundHistogram(_Bound):
    """Pre-resolved histogram series."""

    __slots__ = ("_buckets",)

    def __init__(self, metric: "Histogram", key: LabelKey) -> None:
        super().__init__(metric, key)
        self._buckets = metric.buckets

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_unlocked(value)

    def observe_unlocked(self, value: float) -> None:
        """:meth:`observe` for callers already holding the registry lock."""
        state = self._series.get(self._key)
        if state is None:
            state = self._new_state()
        for index, bound in enumerate(self._buckets):
            if value <= bound:
                state["counts"][index] += 1
                break
        else:
            state["counts"][-1] += 1
        state["sum"] += value
        state["count"] += 1

    def merge_unlocked(self, other: Dict[str, Any]) -> None:
        """Add another registry's state of this series (lock held)."""
        state = self._series.get(self._key)
        if state is None:
            state = self._new_state()
        state["counts"] = [
            a + b for a, b in zip(state["counts"], other["counts"])
        ]
        state["sum"] += float(other["sum"])
        state["count"] += int(other["count"])

    def _new_state(self) -> Dict[str, Any]:
        state = self._series[self._key] = {
            "counts": [0] * (len(self._buckets) + 1),
            "sum": 0.0,
            "count": 0,
        }
        return state


class _Metric:
    """Shared plumbing of all labelled metric kinds."""

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

    def labelled(self, **labels: Any) -> BoundCounter:
        """A :class:`BoundCounter` handle for one label set."""
        return BoundCounter(self, _label_key(labels))

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (must be non-negative) to a label set."""
        self.labelled(**labels).inc(value)

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0.0 when never touched)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A labelled value that can go up and down."""

    kind = "gauge"

    def labelled(self, **labels: Any) -> BoundGauge:
        """A :class:`BoundGauge` handle for one label set."""
        return BoundGauge(self, _label_key(labels))

    def set(self, value: float, **labels: Any) -> None:
        """Set a label set to ``value``."""
        self.labelled(**labels).set(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Adjust a label set by ``value`` (may be negative)."""
        self.labelled(**labels).inc(value)

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0.0 when never set)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


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

    def labelled(self, **labels: Any) -> BoundHistogram:
        """A :class:`BoundHistogram` handle for one label set."""
        return BoundHistogram(self, _label_key(labels))

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into a label set."""
        self.labelled(**labels).observe(value)

    def count(self, **labels: Any) -> int:
        """Total observations of one label set."""
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state["count"] if state else 0

    def sum(self, **labels: Any) -> float:
        """Sum of observed values of one label set."""
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state["sum"] if state else 0.0


class MetricsRegistry:
    """Thread-safe, mergeable home of one process's metrics.

    Metric factories are idempotent: asking twice for the same name
    returns the same object; asking for an existing name as a different
    kind (or a histogram with different buckets) raises, because the
    merge and export layers rely on one stable definition per name.
    """

    enabled = True

    def __init__(self) -> None:
        #: The registry-wide lock every metric shares.  Hot paths that
        #: make several writes per event may hold it once and use the
        #: ``*_unlocked`` bound-metric variants.
        self.lock = self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        #: How many registries' worth of data this one holds (grows by
        #: the incoming snapshot's ``sources`` on every :meth:`merge`).
        self.sources = 1

    # ----- factories -------------------------------------------------------------

    def _get(self, name: str, kind: type, help: str, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            if (
                isinstance(metric, Histogram)
                and "buckets" in kwargs
                and metric.buckets != tuple(float(b) for b in kwargs["buckets"])
            ):
                raise ValueError(
                    f"histogram {name!r} already registered with "
                    f"different buckets"
                )
            return metric
        metric = kind(name, help, self._lock, **kwargs)
        with self._lock:
            return self._metrics.setdefault(name, metric)

    def counter(self, name: str, help: str = "") -> Counter:
        """The named counter, created on first use."""
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The named gauge, created on first use."""
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The named fixed-bucket histogram, created on first use."""
        return self._get(name, Histogram, help, buckets=buckets)

    def metrics(self) -> List[_Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ----- snapshot / merge -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The registry as a JSON-able dict (safe to pickle/ship)."""
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

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        Counters and histograms accumulate; gauges take the incoming
        value (last writer wins); :attr:`sources` grows by the
        snapshot's own source count, so provenance survives arbitrary
        merge trees.
        """
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema: {snapshot.get('schema')!r}"
            )
        incoming = []
        for entry in snapshot["metrics"]:
            name, kind = entry["name"], entry["kind"]
            if kind == "counter":
                metric: Any = self.counter(name, entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""), buckets=entry["buckets"]
                )
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
            incoming.append((kind, metric, entry["series"]))
        # One frame for every series and the source count, so a racing
        # snapshot_and_reset never sees a half-merged registry.
        with self._lock:
            for kind, metric, series in incoming:
                for raw_key, value in series:
                    bound = metric.labelled(**dict(raw_key))
                    if kind == "counter":
                        bound.inc_unlocked(float(value))
                    elif kind == "gauge":
                        bound.set_unlocked(value)
                    else:
                        bound.merge_unlocked(value)
            self.sources += int(snapshot.get("sources", 1))

    def snapshot_and_reset(self) -> Dict[str, Any]:
        """Snapshot, then clear every series (keeps definitions).

        Engine workers call this after each task so successive
        ship-backs never double-count.
        """
        snap = self.snapshot()
        with self._lock:
            for metric in self._metrics.values():
                # Clear in place: bound handles (``labelled()``) alias
                # the series dict and must survive the reset.
                metric._series.clear()
            # Under the frame that clears the series it describes.
            self.sources = 1
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

    def inc_unlocked(self, value: float = 1.0) -> None:
        pass

    def set_unlocked(self, value: float) -> None:
        pass

    def observe_unlocked(self, value: float) -> None:
        pass

    def labelled(self, **labels: Any) -> "_NullMetric":
        return self

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

    def snapshot_and_reset(self) -> Dict[str, Any]:
        return self.snapshot()

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass


#: Shared no-op registry; the default everywhere instrumentation is optional.
NULL_REGISTRY = NullMetricsRegistry()
