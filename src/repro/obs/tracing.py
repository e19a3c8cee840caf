"""Span-based decision tracing with explicit clock injection.

A :class:`Span` covers one unit of work and carries a flat attribute
dict.  One kernel-launch decision cycle is a :class:`LaunchNote`, which
the decision path writes onto as the launch flows through it: the
runtime stamps identity and observed telemetry, the MPC manager the
decision mode / horizon / predictions, the optimizer its search counts.

Timestamps are **never** read from the wall clock on the hot path.  The
tracer takes an injected ``clock`` callable, and callers that live in
simulated time (the session runtime) pass their own time explicitly via
``at=``, so two runs of the same workload produce byte-identical traces
regardless of host speed.

The disabled path is a shared :data:`NULL_TRACER` whose ``start_span``
returns one module-level no-op span: no allocation, no branching in
calling code.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "LaunchNote", "Span", "Tracer", "NullTracer", "NULL_TRACER", "SPAN_SCHEMA",
]

#: Version stamp written into every exported span.
SPAN_SCHEMA = 1


class Span:
    """One traced unit of work with annotated attributes."""

    __slots__ = ("name", "start_s", "end_s", "attributes")

    def __init__(self, name: str, start_s: float = 0.0) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, Any] = {}

    def annotate(self, key: str, value: Any) -> None:
        """Set one attribute (last writer wins)."""
        self.attributes[key] = value

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form, as buffered and exported.

        The returned dict shares this span's attribute mapping: spans
        are single-shot, so by the time ``as_dict`` runs (at
        ``end_span``) nothing mutates the attributes anymore, and
        copying a dozen-entry dict per launch was pure hot-path cost.
        """
        return {
            "schema": SPAN_SCHEMA,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attributes": self.attributes,
        }


class LaunchNote(Span):
    """One launch's span and the one record its decision path writes.

    The session runtime opens it and hands it down the decision path,
    then folds it (see ``SessionRuntime._fold``).  :attr:`attributes`
    export as the launch span.  Of the other slots, ``searches``,
    ``memo_hits`` and ``climb_steps`` (per knob) become span attributes
    at the fold; ``evaluations`` (inside searches), ``sweeps``
    (obtained), ``horizon`` (requested), ``model_evaluations`` (set once
    an MPC decision completes) and ``pattern_miss`` are fold-only.
    """

    __slots__ = ("searches", "memo_hits", "climb_steps", "evaluations",
                 "sweeps", "horizon", "model_evaluations", "pattern_miss")

    def __init__(self, start_s: float, attributes: Dict[str, Any]) -> None:
        self.name = "launch"
        self.start_s = start_s
        self.end_s = None
        self.attributes = attributes
        self.searches = 0
        self.memo_hits = 0
        self.climb_steps: Dict[str, int] = {}
        self.evaluations = 0
        self.sweeps = 0
        self.horizon: Optional[int] = None
        self.model_evaluations: Optional[int] = None
        self.pattern_miss = False

    def publish_searches(self) -> None:
        """Write the search counts as span attributes (integer sums, as floats)."""
        if not self.searches:
            return
        attrs = self.attributes
        climbs = self.climb_steps
        attrs["hill_climb_steps"] = float(sum(climbs.values()))
        for knob in sorted(climbs):
            attrs[f"climb_steps.{knob}"] = float(climbs[knob])
        attrs["matrix_batches"] = float(self.searches)
        attrs["memo_hits"] = float(self.memo_hits)


class _NullSpan:
    """A do-nothing span; one shared module-level instance."""

    __slots__ = ()
    name = ""
    start_s = 0.0
    end_s = 0.0
    attributes: Dict[str, Any] = {}

    def annotate(self, key: str, value: Any) -> None:
        pass

    def as_dict(self) -> Dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans.

    Args:
        clock: Injected time source used when ``at`` is not given to
            :meth:`start_span`/:meth:`end_span`.  Defaults to a frozen
            zero clock — deliberately **not** the wall clock; callers
            with a meaningful notion of time (simulated or otherwise)
            must inject one or pass ``at`` explicitly.
        keep: Whether finished spans are retained on :attr:`spans`
            (disable for long runs whose spans are never exported).
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        keep: bool = True,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.keep = keep
        self.spans: List[Dict[str, Any]] = []

    # ----- span lifecycle ---------------------------------------------------------

    def start_span(self, name: str, at: Optional[float] = None,
                   **attributes: Any) -> Span:
        """Open a span (annotated by whoever holds it)."""
        span = Span(name, start_s=self.clock() if at is None else at)
        if attributes:
            span.attributes = attributes
        return span

    def end_span(self, span: Span, at: Optional[float] = None) -> Dict[str, Any]:
        """Close a span and deliver it to the buffer."""
        span.end_s = self.clock() if at is None else at
        payload = span.as_dict()
        self.emit(payload)
        return payload

    def emit(self, payload: Dict[str, Any]) -> None:
        """Deliver an already-serialized span (e.g. from a worker)."""
        if self.keep:
            self.spans.append(payload)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the buffered finished spans."""
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """The disabled tracer: shared no-op span, zero retained state."""

    enabled = False
    spans: List[Dict[str, Any]] = []

    def start_span(self, name: str, at: Optional[float] = None,
                   **attributes: Any) -> Any:
        return _NULL_SPAN

    def end_span(self, span: Any, at: Optional[float] = None) -> Dict[str, Any]:
        return {}

    def emit(self, payload: Dict[str, Any]) -> None:
        pass

    def drain(self) -> List[Dict[str, Any]]:
        return []


#: Shared no-op tracer; the default everywhere instrumentation is optional.
NULL_TRACER = NullTracer()
