"""One simulated fleet node: a SessionManager slice of the population.

A :class:`FleetNode` owns its own ground-truth hardware models (one
APU per node, as in a real fleet), one predictor per (predictor kind,
kernel population) and a :class:`~repro.runtime.manager.SessionManager`
hosting the sessions placed on it, which share those predictors and
the manager's sweep pools.  Because counter synthesis is a pure function of
``(seed, kernel, sequence)`` and a policy only ever sees its own
session's launches, a session's decisions are *placement-invariant*:
they are float-for-float the same on any node of any fleet — the
foundation of the fleet-of-one differential contract
(``tests/fleet/test_differential.py``).

The node's epoch interface is deliberately narrow and picklable: one
:meth:`FleetNode.epoch` call per budget epoch takes the budget, the
newly placed sessions and the epoch's slim launches in, and hands the
decisions, demand and obs deltas back, so the same object serves both
the in-process transport and the worker-process shard protocol in
:mod:`repro.fleet.shard` with one message each way per epoch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hardware.apu import APUModel
from repro.obs import Instrumentation, make_instrumentation
from repro.runtime.events import KernelLaunch
from repro.runtime.manager import SessionManager
from repro.runtime.session import SessionStats
from repro.sim.simulator import OverheadModel
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec
from repro.workloads.traces.format import RecordedDecision, SessionSpec
from repro.workloads.traces.replay import Predictors, build_policy, outcome_decision

__all__ = ["FleetNode"]


class FleetNode:
    """Hosts one node's worth of sessions behind the epoch protocol.

    The fleet reaches a node once per budget epoch, through
    :meth:`epoch`; the methods it composes stay callable on their own,
    and migration keeps its own calls (:meth:`snapshot_session`,
    :meth:`restore_session`, :meth:`remove_session`).

    Args:
        node_id: The node's id within the fleet (e.g. ``node-0``).
        enforce_tdp: Whether hosted sessions throttle into the TDP
            (taken from the trace header by the simulator).
        cache_dir: Random Forest cache directory for ``forest``
            predictor specs.
        obs: Node-local instrumentation.  Defaults to a live private
            registry/tracer pair whose contents ship to the parent at
            each epoch via :meth:`drain_obs` (the engine-worker merge
            idiom).
    """

    def __init__(
        self,
        node_id: str,
        *,
        enforce_tdp: bool = False,
        cache_dir: str = ".cache",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.node_id = node_id
        self.cache_dir = cache_dir
        self.obs = obs if obs is not None else make_instrumentation()
        self.apu = APUModel()
        self.counters = CounterSynthesizer()
        self.overhead = OverheadModel()
        self.manager = SessionManager(
            apu=self.apu,
            counters=self.counters,
            overhead=self.overhead,
            enforce_tdp=enforce_tdp,
            isolate_faults=True,
            obs=self.obs,
        )
        # Predictors built for this node's sessions (build_policy).
        self._predictors: Predictors = {}
        # Spec + kernels per hosted session, kept so a migrated-in
        # snapshot can rebuild an identically-constructed policy.
        self._specs: Dict[str, Tuple[SessionSpec, List[KernelSpec]]] = {}
        # Kernel specs by key per session: lets the step protocol ship
        # slim (index, session, kernel_key) launches instead of full
        # specs on every event (the specs crossed once at add_session).
        self._kernels: Dict[str, Dict[str, KernelSpec]] = {}
        # Demand deltas are epoch-windowed: remember the totals at the
        # end of the previous epoch.
        self._last = {"energy_j": 0.0, "busy_s": 0.0, "instructions": 0.0,
                      "kernel_s": 0.0, "launches": 0.0}

    # ----- session lifecycle ----------------------------------------------------

    def add_session(self, spec: SessionSpec,
                    kernels: Sequence[KernelSpec]) -> None:
        """Place a session on this node, building its policy."""
        kernels = list(kernels)
        policy = build_policy(
            spec.policy,
            kernels,
            apu=self.apu,
            overhead=self.overhead,
            obs=self.obs,
            cache_dir=self.cache_dir,
            predictors=self._predictors,
        )
        self.manager.add_session(
            spec.session_id,
            policy,
            app_name=spec.app_name,
            charge_overhead=spec.charge_overhead,
        )
        self._specs[spec.session_id] = (spec, kernels)
        self._kernels[spec.session_id] = {k.key: k for k in kernels}

    def remove_session(self, session_id: str) -> None:
        """Drop a session (after departure or migration out)."""
        self.manager.remove_session(session_id)
        del self._specs[session_id]
        del self._kernels[session_id]

    def session_ids(self) -> List[str]:
        """Hosted session ids, sorted."""
        return self.manager.session_ids()

    # ----- the epoch protocol ---------------------------------------------------

    def epoch(
        self,
        budget: Optional[float],
        sessions: Sequence[Tuple[SessionSpec, Sequence[KernelSpec]]],
        events: Sequence[Tuple[int, str, str]],
    ) -> Tuple[
        List[Tuple[str, int, RecordedDecision]],
        Dict[str, Any],
        Tuple[Dict[str, Any], List[Dict[str, Any]]],
    ]:
        """One budget epoch: the fleet's only per-epoch command.

        Applies ``budget`` through :meth:`set_budget` (the one
        apportioned at the previous epoch; ``None`` before the first
        apportionment and in uncapped runs), places the epoch's newly
        admitted ``sessions`` (``(spec, kernels)`` pairs), then runs
        :meth:`step` over ``events``.  The budget reaches every session,
        migrated-in ones included, before its first launch of the epoch.

        Returns ``(decisions, demand, obs)``: :meth:`step`'s decisions
        plus this epoch's :meth:`demand` and :meth:`drain_obs`.
        """
        self.set_budget(budget)
        for spec, kernels in sessions:
            self.add_session(spec, kernels)
        return self.step(events), self.demand(), self.drain_obs()

    def step(
        self, events: Sequence[Tuple[int, str, str]]
    ) -> List[Tuple[str, int, RecordedDecision]]:
        """Process one epoch's slice of the event stream, in order.

        Events arrive slim — ``(index, session_id, kernel_key)`` — and
        resolve against the specs registered at :meth:`add_session`, so
        the shard pipe never re-ships a ``KernelSpec`` per launch.  Each
        is dispatched on its own, in order; sessions on one predictor
        still share sweeps through the manager's sweep pool.

        Returns ``(session_id, index, decision)`` per event, in input
        order — the picklable form the parent folds into the fleet
        report and the differential tests compare float-for-float.
        """
        dispatch = self.manager.dispatch
        decisions = []
        for index, session_id, kernel_key in events:
            outcome = dispatch(KernelLaunch(
                index=index,
                spec=self._kernels[session_id][kernel_key],
                session_id=session_id,
            ))
            decisions.append((session_id, index, outcome_decision(outcome)))
        return decisions

    def set_budget(self, watts: Optional[float]) -> None:
        """Apply an apportioned budget to every session.

        The fleet simulator publishes the budget gauge parent-side
        (after the epoch's registry merge), so the node itself only
        updates the throttle cap.
        """
        self.manager.set_power_budget(watts)

    def demand(self) -> Dict[str, Any]:
        """Epoch-windowed demand signal (deltas since the last call).

        Returns the :class:`~repro.fleet.budget.NodeDemand` fields as a
        plain dict (picklable across the shard boundary).
        """
        total = self.manager.aggregate_stats()
        busy_s = total.kernel_time_s + total.overhead_time_s
        d_energy = total.energy_j - self._last["energy_j"]
        d_busy = busy_s - self._last["busy_s"]
        d_instructions = total.instructions - self._last["instructions"]
        d_kernel = total.kernel_time_s - self._last["kernel_s"]
        d_launches = total.launches - self._last["launches"]
        self._last = {
            "energy_j": total.energy_j,
            "busy_s": busy_s,
            "instructions": total.instructions,
            "kernel_s": total.kernel_time_s,
            "launches": total.launches,
        }
        return {
            "node_id": self.node_id,
            "power_w": d_energy / d_busy if d_busy > 0 else 0.0,
            "throughput_ips": d_instructions / d_kernel if d_kernel > 0 else 0.0,
            "sessions": len(self.manager),
            "launches": int(d_launches),
        }

    def stats(self) -> Dict[str, SessionStats]:
        """Per-session statistics of every hosted session."""
        return self.manager.stats()

    def drain_obs(self) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """This epoch's registry snapshot and finished spans.

        The registry is snapshot-and-reset so parent-side merges never
        double-count across epochs; spans drain in emission order.
        """
        snapshot = self.obs.registry.snapshot_and_reset()
        spans = self.obs.tracer.drain()
        return snapshot, spans

    # ----- migration ------------------------------------------------------------

    def snapshot_session(self, session_id: str) -> Dict[str, Any]:
        """A session's migratable state, plus what rebuilds its policy."""
        spec, kernels = self._specs[session_id]
        return {
            "spec": spec.as_dict(),
            "kernels": [k for k in kernels],
            "session": self.manager.session(session_id).snapshot(),
        }

    def restore_session(self, payload: Dict[str, Any]) -> None:
        """Rebuild a migrated-in session from :meth:`snapshot_session`."""
        spec = SessionSpec.from_dict(payload["spec"])
        self.add_session(spec, payload["kernels"])
        try:
            self.manager.session(spec.session_id).restore(payload["session"])
        except Exception:
            self.remove_session(spec.session_id)
            raise
