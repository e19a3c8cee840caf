"""``repro.obs`` — decision tracing, metrics, and exporters.

The observability layer of the reproduction (see
``docs/OBSERVABILITY.md``).  One :class:`Instrumentation` object bundles
the two primitives every instrumented layer takes:

* a :class:`~repro.obs.metrics.MetricsRegistry` of process-wide
  counters / gauges / histograms, snapshot-and-mergeable across the
  experiment engine's worker processes, and
* a :class:`~repro.obs.tracing.Tracer` producing one structured span
  per kernel launch with the decision internals the paper's runtime
  figures are about (predicted vs. observed IPS/power, hill-climb
  steps, horizon choice, fail-safe and fault events).

The default everywhere is :data:`NOOP` — shared null objects whose
methods do nothing and allocate nothing — so instrumentation is
zero-cost unless explicitly enabled, and the golden-result suite is
bit-identical with the layer present.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.health import (
    HealthMonitor,
    HealthState,
    NULL_HEALTH,
    NullHealthMonitor,
    format_health_report,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "HealthMonitor",
    "HealthState",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NOOP",
    "NULL_HEALTH",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullHealthMonitor",
    "NullMetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "format_health_report",
    "make_instrumentation",
    "publish_cache_stats",
]


class Instrumentation:
    """A registry/tracer pair handed through the instrumented layers.

    Layers accept ``obs: Optional[Instrumentation] = None`` and fall
    back to :data:`NOOP`; sharing one object across the session
    runtime, the MPC manager, and its optimizer is what makes their
    annotations land on the same per-launch span.
    """

    __slots__ = ("registry", "tracer", "health")

    def __init__(self, registry: Optional[Any] = None,
                 tracer: Optional[Any] = None,
                 health: Optional[Any] = None) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.health = health if health is not None else NULL_HEALTH

    @property
    def enabled(self) -> bool:
        """Whether any part of this instrumentation is live."""
        return bool(
            self.registry.enabled or self.tracer.enabled or self.health.enabled
        )


#: The shared disabled instrumentation; safe to use from any thread.
NOOP = Instrumentation(NULL_REGISTRY, NULL_TRACER, NULL_HEALTH)


def or_noop(obs: Optional[Instrumentation]) -> Instrumentation:
    """``obs`` if given, else the shared no-op instrumentation."""
    return obs if obs is not None else NOOP


def make_instrumentation(
    clock: Optional[Callable[[], float]] = None,
    keep_spans: bool = True,
    health: bool = False,
) -> Instrumentation:
    """A live registry + tracer pair (optionally with a health monitor).

    Args:
        clock: Injected tracer time source (defaults to a frozen zero
            clock; the session runtime stamps simulated time onto its
            spans explicitly, so most callers never need one).  The
            opt-in profiling hook: only an explicitly injected clock
            may read the wall clock.
        keep_spans: Whether the tracer buffers finished spans in memory
            for post-run export.
        health: Install a :class:`~repro.obs.health.HealthMonitor`
            sharing this registry/tracer, so every launch decision
            feeds the model-health ledgers and drift detectors.
    """
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, keep=keep_spans)
    monitor = HealthMonitor(registry, tracer) if health else None
    return Instrumentation(registry, tracer, monitor)


# ----- stats bridges ---------------------------------------------------------
#
# CacheStats predates the registry; this bridge publishes its
# point-in-time values as gauges so engine runs can report per-worker
# and aggregate stats through one exporter.  Gauges (not counters)
# because the stats object is itself an accumulator: re-publishing
# overwrites instead of double-counting.


def publish_cache_stats(registry: Any, stats: Any, **labels: Any) -> None:
    """Publish a :class:`~repro.engine.cache.CacheStats` as gauges."""
    for name in ("hits", "misses", "corrupt", "stores", "sources"):
        registry.gauge(
            f"repro_cache_{name}",
            f"Result-cache {name} (point-in-time of the stats object)",
        ).set(getattr(stats, name), **labels)
    registry.gauge(
        "repro_cache_load_seconds", "Result-cache time spent reading entries"
    ).set(stats.load_s, **labels)
    registry.gauge(
        "repro_cache_store_seconds", "Result-cache time spent writing entries"
    ).set(stats.store_s, **labels)
