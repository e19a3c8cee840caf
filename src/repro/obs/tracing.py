"""Span-based decision tracing with explicit clock injection.

A :class:`Span` covers one unit of work — in this reproduction, one
kernel-launch decision cycle — and carries a flat attribute dict that
instrumented layers annotate as the launch flows through them: the
runtime stamps identity and observed telemetry, the MPC manager stamps
the decision mode / horizon / predictions, and the optimizer accumulates
its hill-climb step counts.

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

import threading
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "SPAN_SCHEMA"]

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

    def inc(self, key: str, value: float = 1.0) -> None:
        """Accumulate a numeric attribute (creates it at 0)."""
        self.attributes[key] = self.attributes.get(key, 0.0) + value

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


class _NullSpan:
    """A do-nothing span; one shared module-level instance."""

    __slots__ = ()
    name = ""
    start_s = 0.0
    end_s = 0.0
    attributes: Dict[str, Any] = {}

    def annotate(self, key: str, value: Any) -> None:
        pass

    def inc(self, key: str, value: float = 1.0) -> None:
        pass

    def as_dict(self) -> Dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; tracks a per-thread current span for annotation.

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
        self._local = threading.local()

    # ----- span lifecycle ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start_span(self, name: str, at: Optional[float] = None,
                   **attributes: Any) -> Span:
        """Open a span and make it the thread's current one."""
        span = Span(name, start_s=self.clock() if at is None else at)
        if attributes:
            span.attributes.update(attributes)
        self._stack().append(span)
        return span

    def end_span(self, span: Span, at: Optional[float] = None) -> Dict[str, Any]:
        """Close a span, pop it, and deliver it to the buffer."""
        span.end_s = self.clock() if at is None else at
        stack = self._stack()
        # LIFO fast path: the span being ended is almost always the
        # innermost one, so a tail pop beats the linear scan.
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
        payload = span.as_dict()
        self.emit(payload)
        return payload

    def emit(self, payload: Dict[str, Any]) -> None:
        """Deliver an already-serialized span (e.g. from a worker)."""
        if self.keep:
            self.spans.append(payload)

    # ----- annotation of the current span ----------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost open span of this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def annotate(self, key: str, value: Any) -> None:
        """Set an attribute on the current span (no-op when none)."""
        span = self.current()
        if span is not None:
            span.annotate(key, value)

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

    def current(self) -> Optional[Any]:
        return None

    def annotate(self, key: str, value: Any) -> None:
        pass

    def drain(self) -> List[Dict[str, Any]]:
        return []


#: Shared no-op tracer; the default everywhere instrumentation is optional.
NULL_TRACER = NullTracer()
