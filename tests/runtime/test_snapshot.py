"""Tests for session snapshot/restore: migration across hosts."""

import json

import pytest

from repro.core.policies import FixedConfigPolicy, PlannedPolicy, PPKPolicy
from repro.hardware.config import FAILSAFE_CONFIG
from repro.ml.predictors import OraclePredictor
from repro.obs import make_instrumentation
from repro.runtime.events import launch_events
from repro.runtime.lifecycle import PolicyState
from repro.runtime.session import SessionRuntime
from repro.sim.policy import PowerPolicy
from repro.sim.simulator import Simulator
from repro.sim.turbocore import TurboCorePolicy

from .conftest import APP, make_manager, turbo_target

pytestmark = pytest.mark.runtime


def _json_roundtrip(payload):
    """Assert the snapshot is genuinely JSON-able and reload it."""
    return json.loads(json.dumps(payload))


def _migrate_mid_run(sim, make_policy, *, warmup_runs, cut):
    """Run ``warmup_runs`` invocations, then split the next one at ``cut``.

    The uninterrupted session keeps going on the original host; the
    migrated one restores a JSON round-tripped snapshot onto a fresh
    host and processes the remaining events.  Returns both final-run
    traces.
    """
    events = list(launch_events(APP))

    # Reference: one session, never interrupted.
    reference = sim.session(make_policy())
    for _ in range(warmup_runs):
        reference.run(APP)
    ref_result = reference.run(APP)

    # Migrated: identical warmup, snapshot mid-run, restore elsewhere.
    source = sim.session(make_policy(), session_id="mig", app_name=APP.name)
    for _ in range(warmup_runs):
        source.run(APP)
    source.begin_run()
    for event in events[:cut]:
        source.process(event)
    payload = _json_roundtrip(source.snapshot())

    target = sim.session(make_policy(), session_id="other")
    target.restore(payload)
    for event in events[cut:]:
        target.process(event)

    migrated = source.result.launches[:cut] + target.result.launches
    return ref_result.launches, migrated


class TestMPCRoundTrip:
    def test_mid_steady_run_migration_is_exact(self, sim):
        """A restored MPC session reproduces the uninterrupted decisions."""
        target_tp = turbo_target(sim)
        reference, migrated = _migrate_mid_run(
            sim,
            lambda: make_manager(sim, target=target_tp),
            warmup_runs=2, cut=3,
        )
        assert migrated == reference

    def test_snapshot_restores_lifecycle_state(self, sim):
        manager = make_manager(sim)
        sim.run(APP, manager)
        sim.run(APP, manager)
        assert manager.state is PolicyState.MPC
        payload = _json_roundtrip(manager.snapshot())

        clone = make_manager(sim, target=manager.tracker.target_throughput)
        clone.restore(payload)
        assert clone.state is PolicyState.MPC
        assert clone.search_order.order == manager.search_order.order
        assert clone.extractor.num_records == manager.extractor.num_records

    def test_profiling_snapshot_stays_profiling(self, sim):
        manager = make_manager(sim)
        payload = _json_roundtrip(manager.snapshot())
        clone = make_manager(sim, target=manager.tracker.target_throughput)
        clone.restore(payload)
        assert clone.state is PolicyState.PROFILING
        assert clone.search_order is None

    def test_bad_schema_rejected(self, sim):
        manager = make_manager(sim)
        with pytest.raises(ValueError, match="snapshot schema"):
            manager.restore({"schema": 999})


class TestOtherPolicies:
    def test_ppk_roundtrip(self, sim):
        target_tp = turbo_target(sim)

        def policy():
            return PPKPolicy(
                target_tp, OraclePredictor(sim.apu, APP.unique_kernels)
            )

        reference, migrated = _migrate_mid_run(
            sim, policy, warmup_runs=0, cut=4
        )
        assert migrated == reference

    def test_turbo_roundtrip(self, sim):
        def policy():
            return TurboCorePolicy(tdp_w=sim.apu.tdp_w)

        reference, migrated = _migrate_mid_run(
            sim, policy, warmup_runs=0, cut=5
        )
        assert migrated == reference

    def test_stateless_policies_snapshot_empty(self):
        assert FixedConfigPolicy(FAILSAFE_CONFIG).snapshot() == {}
        assert PlannedPolicy([FAILSAFE_CONFIG]).snapshot() == {}

    def test_base_policy_snapshot_not_implemented(self):
        class Opaque(PowerPolicy):
            name = "Opaque"

            def decide(self, index):
                raise NotImplementedError

            def observe(self, observation):
                pass

        with pytest.raises(NotImplementedError, match="session snapshots"):
            Opaque().snapshot()
        with pytest.raises(NotImplementedError, match="session snapshots"):
            Opaque().restore({})


class TestSessionEnvelope:
    def test_session_snapshot_schema_and_position(self, sim):
        session = sim.session(
            FixedConfigPolicy(FAILSAFE_CONFIG), session_id="s", app_name="alt"
        )
        events = list(launch_events(APP))
        session.process(events[0])
        session.process(events[1])
        payload = _json_roundtrip(session.snapshot())
        assert payload["schema"] == 2
        assert payload["session_id"] == "s"
        assert payload["next_index"] == 2
        assert payload["policy"]["name"] == "Fixed"

    def test_policy_name_mismatch_rejected(self, sim):
        payload = sim.session(FixedConfigPolicy(FAILSAFE_CONFIG)).snapshot()
        other = sim.session(TurboCorePolicy())
        with pytest.raises(ValueError, match="snapshot is for policy"):
            other.restore(payload)

    def test_restored_stats_match(self, sim):
        session = Simulator().session(TurboCorePolicy(), session_id="s")
        session.run(APP)
        payload = _json_roundtrip(session.snapshot())
        clone = Simulator().session(TurboCorePolicy())
        clone.restore(payload)
        assert clone.stats == session.stats
        assert clone.session_id == "s"

    def test_restored_session_counts_under_its_own_id(self, sim):
        # A host built as "a" that takes over session "b" writes every
        # series under "b": the four bound at construction, and the
        # throttle and fail-safe series bound at first use.
        unreachable = 10 * turbo_target(sim)

        def host(session_id, obs=None):
            return SessionRuntime(
                PPKPolicy(unreachable, OraclePredictor(sim.apu, APP.unique_kernels)),
                apu=sim.apu, session_id=session_id, obs=obs, power_budget_w=20.0,
            )

        events = list(launch_events(APP, "b"))
        source = host("b")
        for event in events[:3]:
            source.process(event)
        obs = make_instrumentation()
        target = host("a", obs)
        target.restore(_json_roundtrip(source.snapshot()))
        for event in events[3:] + events:
            target.process(event)

        labelled = {
            entry["name"]: {dict(key)["session"] for key, _ in entry["series"]}
            for entry in obs.registry.snapshot()["metrics"]
            if entry["name"].startswith("repro_runtime_")
        }
        assert labelled == {
            name: {"b"}
            for name in (
                "repro_runtime_runs_total",
                "repro_runtime_launches_total",
                "repro_runtime_kernel_seconds",
                "repro_runtime_overhead_seconds",
                "repro_runtime_tdp_throttles_total",
                "repro_runtime_fail_safe_total",
            )
        }
        assert obs.registry.counter("repro_runtime_launches_total").total() == (
            2 * len(events) - 3
        )
