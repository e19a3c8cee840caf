"""Registry semantics: labels, bucket edges, snapshot/merge, no-op cost.

The merge contract is what lets engine workers ship their metrics back
to the parent process, so it is exercised both in-process and across a
real ``ProcessPoolExecutor`` boundary.
"""

import concurrent.futures

import pytest

from repro.obs import NOOP, Instrumentation, or_noop
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    _NULL_METRIC,
)

pytestmark = pytest.mark.obs


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent_series(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(mode="a")
        counter.inc(3, mode="b")
        assert counter.value(mode="a") == 1.0
        assert counter.value(mode="b") == 3.0
        assert counter.value(mode="missing") == 0.0
        assert counter.total() == 4.0

    def test_label_order_is_irrelevant(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_value(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3.0


class TestHistogramBucketEdges:
    def test_value_on_bound_lands_in_that_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)   # on the first bound -> bucket le=1.0
        hist.observe(1.5)   # -> le=2.0
        hist.observe(4.0)   # on the last bound -> le=4.0
        hist.observe(9.0)   # overflow -> +Inf
        (state,) = hist.series().values()
        assert state["counts"] == [1, 1, 1, 1]
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(15.5)

    def test_bounds_must_be_strictly_ascending(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("dup", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())


class TestRegistryFactories:
    def test_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))
        # Same buckets are fine.
        registry.histogram("h", buckets=(1.0, 2.0))


class TestSnapshotMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2, mode="x")
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        return registry

    def test_merge_accumulates_counters_and_histograms(self):
        a, b = self._populated(), self._populated()
        a.merge(b.drain())
        assert a.counter("c_total").value(mode="x") == 4.0
        (state,) = a.histogram("h", buckets=(1.0, 10.0)).series().values()
        assert state["count"] == 2
        assert state["counts"] == [2, 0, 0]

    def test_merge_gauges_last_writer_wins(self):
        a = self._populated()
        b = MetricsRegistry()
        b.gauge("g").set(99)
        a.merge(b.drain())
        assert a.gauge("g").value() == 99.0

    def test_merge_accumulates_sources(self):
        a, b, c = self._populated(), self._populated(), self._populated()
        b.merge(c.drain())
        a.merge(b.drain())
        assert a.sources == 3

    def test_snapshot_is_json_able(self):
        import json

        snapshot = self._populated().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        (counter,) = [m for m in snapshot["metrics"] if m["name"] == "c_total"]
        assert counter["series"] == [[[["mode", "x"]], 2.0]]

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge({"schema": 999, "definitions": [], "series": []})

    def test_snapshot_and_reset_prevents_double_count(self):
        registry = self._populated()
        first = registry.snapshot_and_reset()
        assert first["metrics"][0]["series"] == [[[["mode", "x"]], 2.0]]
        assert registry.counter("c_total").value(mode="x") == 0.0
        assert registry.sources == 1
        target = MetricsRegistry()
        target.merge(registry.drain())
        assert target.counter("c_total").value(mode="x") == 0.0

    def test_drain_ships_only_what_changed_since_the_last(self):
        registry = self._populated()
        first = registry.drain()
        assert [d[0] for d in first["definitions"]] == ["c_total", "g", "h"]
        assert [name for name, _ in first["series"]] == ["c_total", "g", "h"]
        registry.counter("c_total").inc(mode="y")
        second = registry.drain()
        # Definitions ship once; series ship under their canonical key.
        assert second["definitions"] == []
        assert second["series"] == [("c_total", [((("mode", "y"),), 1.0)])]
        target = MetricsRegistry()
        target.merge(first)
        target.merge(second)
        assert target.counter("c_total").value(mode="x") == 2.0
        assert target.counter("c_total").value(mode="y") == 1.0
        assert target.histogram("h", buckets=(1.0, 10.0)).count() == 1
        assert registry.drain()["series"] == []


def _worker_snapshot(worker_id):
    registry = MetricsRegistry()
    registry.counter("work_total", "tasks done").inc(worker_id + 1)
    registry.histogram("work_seconds", buckets=(1.0,)).observe(0.5)
    return registry.drain()


class TestProcessPoolMerge:
    def test_merge_across_process_boundary(self):
        parent = MetricsRegistry()
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            for snap in pool.map(_worker_snapshot, range(3)):
                parent.merge(snap)
        assert parent.counter("work_total").value() == 6.0  # 1 + 2 + 3
        assert parent.histogram("work_seconds", buckets=(1.0,)).count() == 3
        assert parent.sources == 4  # parent + 3 workers


class TestNoOpZeroCost:
    def test_factories_return_shared_singleton(self):
        assert NULL_REGISTRY.counter("a") is _NULL_METRIC
        assert NULL_REGISTRY.gauge("b") is _NULL_METRIC
        assert NULL_REGISTRY.histogram("c") is _NULL_METRIC

    def test_mutations_retain_nothing(self):
        NULL_REGISTRY.counter("a").inc(5)
        NULL_REGISTRY.histogram("c").observe(1.0)
        assert NULL_REGISTRY.metrics() == []
        assert NULL_REGISTRY.snapshot()["metrics"] == []

    def test_noop_instrumentation_is_shared_and_disabled(self):
        assert or_noop(None) is NOOP
        assert not NOOP.enabled
        live = Instrumentation(MetricsRegistry())
        assert or_noop(live) is live
        assert live.enabled

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
