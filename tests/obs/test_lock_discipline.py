"""The metrics registry's lock discipline, checked on live runs.

Every metric of a :class:`~repro.obs.metrics.MetricsRegistry` shares the
registry's one lock.  A live launch writes one record, its
:class:`~repro.obs.tracing.LaunchNote`, and its session folds it: one
hold of the lock (a *bulk frame*) around every keyed write of the
launch (``add`` / ``put``).  A ``step_batch`` call, a drain and a merge
are one hold each; only rare writes (registrations and the labelled
calls of faults, lifecycle and health transitions, drift, epochs and
budgets) take the lock again.  The runtime keeps one writer thread per
registry today; the discipline is what keeps a registry consistent if
that ever changes.

Every registry the runs below create gets an owner-tracking lock, and
the test fails when

* a keyed write, a write to a metric's series, or a write to
  ``MetricsRegistry._metrics`` or ``.sources`` runs while the calling
  thread does not hold that registry's lock, or
* a thread acquires a registry lock it already holds: the lock is not
  reentrant, so that would deadlock, or
* a live launch, a ``step_batch`` call, a drain or a merge holds the
  lock other than once, or any other frame than a rare write or a read
  takes it.

The runs are a batched, health-on replay of three scenario families and
an inline two-node fleet under a cap, whose nodes drain their
registries every epoch and whose parent merges the drains.
"""

import sys
import threading
import types
from collections import Counter

import pytest

from repro.fleet import FleetSimulator
from repro.obs import metrics
from repro.runtime.manager import SessionManager
from repro.runtime.session import SessionRuntime
from repro.workloads.traces import ScenarioGenerator
from tests.batched_replay import distinct_session_chunks, replay_batched

pytestmark = pytest.mark.obs

#: Replayed scenario families: together they reach every bulk frame
#: and the fail-safe path.
FAMILIES = ("input-storm", "mispredict-cascade", "bursty")

#: The bulk frames, by the code object that holds the lock.
BULK_FRAMES = {
    SessionRuntime._fold.__code__: "SessionRuntime._fold",
    SessionManager._fold.__code__: "SessionManager._fold",
    metrics.MetricsRegistry.drain.__code__: "MetricsRegistry.drain",
    metrics.MetricsRegistry.merge.__code__: "MetricsRegistry.merge",
}

#: The labelled writes rare paths make.
RARE_WRITES = {
    metrics.Counter.inc.__code__,
    metrics.Gauge.set.__code__,
}

#: The other frames that may take the lock: registrations (once per
#: family and constructed object) and reads.
SETUP_AND_READS = {
    metrics.MetricsRegistry._get.__code__,
    metrics.MetricsRegistry.metrics.__code__,
    metrics.Counter.value.__code__,
    metrics.Counter.total.__code__,
    metrics.Gauge.value.__code__,
    metrics.Histogram.count.__code__,
    metrics._Metric.series.__code__,
}

#: Keyed writes, by the class that defines them: the caller holds the lock.
KEYED_WRITES = {
    metrics.Counter: ("add",),
    metrics.Gauge: ("put",),
    metrics.Histogram: ("add", "_merge"),
}


class LockDisciplineError(BaseException):
    """A broken lock rule.

    A ``BaseException`` so the runtime's fault isolation, which absorbs
    ``Exception``, cannot turn it into a fail-safe launch.
    """


class Discipline:
    """What one test observed: violations and lock holders."""

    def __init__(self):
        self.violations = []
        self.frames = Counter()

    def fail(self, message):
        self.violations.append(message)
        raise LockDisciplineError(message)

    def require(self, lock, what):
        if lock.owner != threading.get_ident():
            self.fail(f"{what} without holding the registry lock")


def owned_lock_type(discipline):
    """A registry lock that knows its owner and counts who takes it."""

    class OwnedLock:
        def __init__(self):
            self._lock = threading.Lock()
            self.owner = None

        def acquire(self, blocking=True, timeout=-1):
            if self.owner == threading.get_ident():
                discipline.fail("re-acquired a registry lock this thread holds")
            acquired = self._lock.acquire(blocking, timeout)
            if acquired:
                self.owner = threading.get_ident()
            return acquired

        def release(self):
            self.owner = None
            self._lock.release()

        def __enter__(self):
            self.acquire()
            discipline.frames[sys._getframe(1).f_code] += 1
            return self

        def __exit__(self, *exc_info):
            self.release()

    return OwnedLock


def guarded_dict_type(discipline):
    """A dict whose every write requires its registry's lock."""

    def guarded(method):
        def write(self, *args, **kwargs):
            discipline.require(self.lock, f"write to {self.what}")
            return method(self, *args, **kwargs)
        return write

    namespace = {
        name: guarded(getattr(dict, name))
        for name in ("__setitem__", "__delitem__", "clear", "pop",
                     "popitem", "setdefault", "update")
    }
    return type("GuardedDict", (dict,), namespace)


@pytest.fixture
def discipline(monkeypatch):
    """Install the checks on every registry created from here on."""
    discipline = Discipline()
    monkeypatch.setattr(
        metrics, "threading",
        types.SimpleNamespace(Lock=owned_lock_type(discipline)),
    )
    guarded_dict = guarded_dict_type(discipline)

    def guard(lock, what):
        store = guarded_dict()
        store.lock, store.what = lock, what
        return store

    metric_init = metrics._Metric.__init__

    def init_metric(self, name, help, lock):
        metric_init(self, name, help, lock)
        self._series = guard(lock, f"the series of {name}")

    registry_init = metrics.MetricsRegistry.__init__

    def init_registry(self):
        registry_init(self)
        self._metrics = guard(self._lock, "MetricsRegistry._metrics")

    def set_registry_attr(self, name, value):
        if name == "sources" and name in self.__dict__:
            discipline.require(self._lock, "write to MetricsRegistry.sources")
        object.__setattr__(self, name, value)

    def keyed(method):
        def call(self, *args):
            discipline.require(self._lock, f"{method.__qualname__}()")
            return method(self, *args)
        return call

    monkeypatch.setattr(metrics._Metric, "__init__", init_metric)
    monkeypatch.setattr(metrics.MetricsRegistry, "__init__", init_registry)
    monkeypatch.setattr(
        metrics.MetricsRegistry, "__setattr__", set_registry_attr
    )
    for cls, names in KEYED_WRITES.items():
        for name in names:
            monkeypatch.setattr(cls, name, keyed(getattr(cls, name)))
    return discipline


def test_registry_writes_hold_the_registry_lock(discipline):
    generator = ScenarioGenerator(seed=0)
    # Generation replays each trace once to check its coverage: count
    # the lock holds of the runs below only.
    traces = [generator.generate(family) for family in FAMILIES]
    serverless = generator.generate("serverless")
    discipline.frames.clear()
    fail_safe = 0.0
    launches = 0
    batches = 0
    for trace in traces:
        report = replay_batched(trace)
        fail_safe += report.registry.counter(
            "repro_runtime_fail_safe_total"
        ).total()
        launches += len(report.outcomes)
        batches += len(distinct_session_chunks(trace.events))
    fleet = FleetSimulator(serverless, nodes=2, cap_w=250.0).run()
    launches += sum(epoch.launches for epoch in fleet.epochs)
    node_epochs = 2 * len(fleet.epochs)

    assert discipline.violations == []
    frames = discipline.frames
    reached = {name for code, name in BULK_FRAMES.items() if frames[code]}
    assert reached == set(BULK_FRAMES.values())
    # One hold per live launch, step_batch call, drain and merge.
    assert frames[SessionRuntime._fold.__code__] == launches
    assert frames[SessionManager._fold.__code__] == batches
    assert frames[metrics.MetricsRegistry.drain.__code__] == node_epochs
    assert frames[metrics.MetricsRegistry.merge.__code__] == node_epochs
    # Everything else is a registration, a read or a rare write, and the
    # rare writes stay well under one more acquisition per launch.
    others = {code: n for code, n in frames.items() if code not in BULK_FRAMES}
    assert set(others) <= RARE_WRITES | SETUP_AND_READS
    assert sum(others.get(code, 0) for code in RARE_WRITES) < 0.5 * launches
    # Fail-safe launches ran, so the fold's lazily registered series did.
    assert fail_safe > 0
    # Node registries were drained and merged into the parent.
    assert fleet.registry.sources > 1
