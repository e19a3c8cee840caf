"""The metrics registry's lock discipline, checked on live runs.

Every metric of a :class:`~repro.obs.metrics.MetricsRegistry` shares the
registry's one lock.  Hot paths hold it once around several writes (a
*bulk frame*) and write through the ``*_unlocked`` bound methods inside
it.  The runtime keeps one writer thread per registry today; the
discipline is what keeps a registry consistent if that ever changes.

Every registry the runs below create gets an owner-tracking lock, and
the test fails when

* a ``*_unlocked`` call, a write to a metric's series, or a write to
  ``MetricsRegistry._metrics`` or ``.sources`` runs while the calling
  thread does not hold that registry's lock, or
* a thread acquires a registry lock it already holds: the lock is not
  reentrant, so that would deadlock.

The runs are a batched, health-on replay of three scenario families and
an inline two-node fleet under a cap, whose nodes snapshot and reset
their registries every epoch and whose parent merges them.
"""

import sys
import threading
import types
from collections import Counter

import pytest

from repro.core.horizon import AdaptiveHorizonGenerator
from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.fleet import FleetSimulator
from repro.obs import metrics
from repro.obs.health import HealthMonitor
from repro.runtime.session import SessionRuntime
from repro.workloads.traces import ScenarioGenerator, TraceReplayer

pytestmark = pytest.mark.obs

#: Replayed scenario families: together they reach every bulk frame
#: and the fail-safe path.
FAMILIES = ("input-storm", "mispredict-cascade", "bursty")

#: The bulk frames, by the code object that holds the lock.
BULK_FRAMES = {
    SessionRuntime.process.__code__: "SessionRuntime.process",
    GreedyHillClimbOptimizer._record_search.__code__:
        "GreedyHillClimbOptimizer._record_search",
    AdaptiveHorizonGenerator.horizon.__code__: "AdaptiveHorizonGenerator.horizon",
    HealthMonitor.observe_launch.__code__: "HealthMonitor.observe_launch",
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

    def unlocked(method):
        def call(self, *args):
            discipline.require(self._lock, f"{method.__qualname__}()")
            return method(self, *args)
        return call

    monkeypatch.setattr(metrics._Metric, "__init__", init_metric)
    monkeypatch.setattr(metrics.MetricsRegistry, "__init__", init_registry)
    monkeypatch.setattr(
        metrics.MetricsRegistry, "__setattr__", set_registry_attr
    )
    for bound in (metrics.BoundCounter, metrics.BoundGauge,
                  metrics.BoundHistogram):
        for name in dir(bound):
            if name.endswith("_unlocked"):
                monkeypatch.setattr(bound, name, unlocked(getattr(bound, name)))
    return discipline


def test_registry_writes_hold_the_registry_lock(discipline):
    generator = ScenarioGenerator(seed=0)
    fail_safe = 0.0
    for family in FAMILIES:
        report = TraceReplayer(
            generator.generate(family), batched=True
        ).replay()
        fail_safe += report.registry.counter(
            "repro_runtime_fail_safe_total"
        ).total()
    fleet = FleetSimulator(
        generator.generate("serverless"), nodes=2, cap_w=250.0
    ).run()

    assert discipline.violations == []
    reached = {
        name for code, name in BULK_FRAMES.items() if discipline.frames[code]
    }
    assert reached == set(BULK_FRAMES.values())
    # The rare labelled write next to SessionRuntime.process's frame ran.
    assert fail_safe > 0
    # Node registries were snapshot-and-reset and merged into the parent.
    assert fleet.registry.sources > 1
