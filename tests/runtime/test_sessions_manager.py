"""Tests for SessionManager: routing and interleaving."""

import itertools

import pytest

from repro.core.policies import FixedConfigPolicy, PPKPolicy
from repro.hardware.config import FAILSAFE_CONFIG
from repro.ml.predictors import OraclePredictor
from repro.runtime.events import launch_events
from repro.runtime.manager import SessionManager
from repro.sim.turbocore import TurboCorePolicy

from .conftest import APP, UNIFORM, turbo_target

pytestmark = pytest.mark.runtime


def _interleave(*streams):
    """Round-robin merge of several event iterators."""
    iterators = [iter(s) for s in streams]
    for chunk in itertools.zip_longest(*iterators):
        for event in chunk:
            if event is not None:
                yield event


@pytest.fixture
def manager(sim):
    return SessionManager(
        apu=sim.apu, counters=sim.counters, overhead=sim.overhead
    )


class TestRegistry:
    def test_add_and_lookup(self, manager):
        session = manager.add_session("a", FixedConfigPolicy(FAILSAFE_CONFIG))
        assert manager.session("a") is session
        assert "a" in manager
        assert len(manager) == 1
        assert manager.session_ids() == ["a"]

    def test_empty_id_rejected(self, manager):
        with pytest.raises(ValueError, match="non-empty"):
            manager.add_session("", FixedConfigPolicy(FAILSAFE_CONFIG))

    def test_duplicate_id_rejected(self, manager):
        manager.add_session("a", FixedConfigPolicy(FAILSAFE_CONFIG))
        with pytest.raises(ValueError, match="already registered"):
            manager.add_session("a", FixedConfigPolicy(FAILSAFE_CONFIG))

    def test_unknown_session_names_known_ids(self, manager):
        manager.add_session("a", FixedConfigPolicy(FAILSAFE_CONFIG))
        with pytest.raises(KeyError, match="registered: a"):
            manager.session("b")

    def test_remove_session(self, manager):
        manager.add_session("a", FixedConfigPolicy(FAILSAFE_CONFIG))
        removed = manager.remove_session("a")
        assert "a" not in manager
        assert removed.policy.name == "Fixed"


class TestInterleaving:
    def test_interleaved_sessions_match_independent_runs(self, sim, manager):
        """A session's trace is unaffected by multiplexing with others."""
        def policies():
            return {
                "turbo": TurboCorePolicy(tdp_w=sim.apu.tdp_w),
                "ppk": PPKPolicy(
                    turbo_target(sim),
                    OraclePredictor(sim.apu, APP.unique_kernels),
                ),
            }

        # Independent reference runs on a fresh, identical simulator.
        reference = {
            sid: sim.run(APP, policy) for sid, policy in policies().items()
        }

        for sid, policy in policies().items():
            manager.add_session(sid, policy, app_name=APP.name)
        outcomes = [
            manager.dispatch(event)
            for event in _interleave(
                launch_events(APP, "turbo"), launch_events(APP, "ppk"),
            )
        ]
        assert len(outcomes) == 2 * len(APP)
        for sid, expected in reference.items():
            assert manager.session(sid).result.launches == expected.launches

    def test_different_apps_per_session(self, manager):
        manager.add_session("alt", FixedConfigPolicy(FAILSAFE_CONFIG),
                            app_name=APP.name)
        manager.add_session("uni", FixedConfigPolicy(FAILSAFE_CONFIG),
                            app_name=UNIFORM.name)
        for event in _interleave(
            launch_events(APP, "alt"), launch_events(UNIFORM, "uni"),
        ):
            manager.dispatch(event)
        stats = manager.stats()
        assert stats["alt"].launches == len(APP)
        assert stats["uni"].launches == len(UNIFORM)

    def test_multi_invocation_stream_restarts_runs(self, manager):
        manager.add_session("a", FixedConfigPolicy(FAILSAFE_CONFIG))
        for event in list(launch_events(APP, "a")) * 2:
            manager.dispatch(event)
        assert manager.stats()["a"].runs == 2
