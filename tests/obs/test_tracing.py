"""Tracer lifecycle: explicit clocks, span attributes, buffering."""

import pytest

from repro.obs.tracing import NULL_TRACER, SPAN_SCHEMA, Tracer

pytestmark = pytest.mark.obs


class TestSpanLifecycle:
    def test_start_end_with_explicit_times(self):
        tracer = Tracer()
        span = tracer.start_span("launch", at=1.5, app="x")
        span.annotate("config", "c")
        span.annotate("steps", 3.0)
        payload = tracer.end_span(span, at=2.0)
        assert payload == {
            "schema": SPAN_SCHEMA,
            "name": "launch",
            "start_s": 1.5,
            "end_s": 2.0,
            "attributes": {"app": "x", "config": "c", "steps": 3.0},
        }
        assert tracer.spans == [payload]

    def test_default_clock_is_frozen_zero(self):
        tracer = Tracer()
        span = tracer.start_span("launch")
        payload = tracer.end_span(span)
        assert payload["start_s"] == 0.0
        assert payload["end_s"] == 0.0

    def test_injected_clock(self):
        ticks = iter([10.0, 20.0])
        tracer = Tracer(clock=lambda: next(ticks))
        span = tracer.start_span("launch")
        payload = tracer.end_span(span)
        assert (payload["start_s"], payload["end_s"]) == (10.0, 20.0)


class TestSinkAndBuffer:
    def test_unkept_spans_are_not_buffered(self):
        tracer = Tracer(keep=False)
        payload = tracer.end_span(tracer.start_span("a"))
        tracer.emit({"name": "b"})
        assert payload["name"] == "a"
        assert tracer.spans == []
        assert tracer.drain() == []

    def test_drain_returns_and_clears(self):
        tracer = Tracer()
        tracer.end_span(tracer.start_span("a"))
        drained = tracer.drain()
        assert [p["name"] for p in drained] == ["a"]
        assert tracer.spans == []
        assert tracer.drain() == []


class TestNullTracer:
    def test_shared_noop_span(self):
        span_a = NULL_TRACER.start_span("a", at=1.0, x=1)
        span_b = NULL_TRACER.start_span("b")
        assert span_a is span_b
        span_a.annotate("k", "v")
        assert span_a.attributes == {}
        assert NULL_TRACER.end_span(span_a) == {}
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.drain() == []
        assert not NULL_TRACER.enabled
