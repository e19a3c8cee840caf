"""The session manager: many concurrent sessions behind one event stream.

The ROADMAP north star is a service consuming kernel-launch events from
many concurrent applications.  :class:`SessionManager` is that hosting
layer: it keys :class:`~repro.runtime.session.SessionRuntime` instances
by session id, routes an interleaved :class:`KernelLaunch` stream to
the right session, and aggregates per-session statistics.  Because each
session's policy only ever sees its own launches, interleaving is
transparent: a session's trace is identical whether it ran alone or
multiplexed with others (asserted by the runtime test suite).
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hardware.apu import APUModel
from repro.obs import Instrumentation, or_noop
from repro.runtime.events import KernelLaunch, LaunchOutcome
from repro.runtime.session import SessionRuntime, SessionStats
from repro.sim.policy import PowerPolicy
from repro.sim.simulator import OverheadModel
from repro.workloads.counters import CounterSynthesizer, CounterVector

__all__ = ["SessionManager"]

_log = logging.getLogger(__name__)

#: The counters every ``step_batch`` call under live obs folds, in fold
#: order: (name, help).
_BATCHED_COUNTERS = (
    ("repro_runtime_batched_steps_total", "step_batch calls processed"),
    ("repro_runtime_batched_launches_total",
     "Launches processed through step_batch"),
    ("repro_runtime_batched_sweeps_total",
     "Distinct sweeps step_batch started, stacked, for vectors its "
     "sessions missed and their sweep pool lacked"),
    ("repro_runtime_batched_dedup_hits_total",
     "Sweeps a session missed that its sweep pool or another session's "
     "request in the same stacked call supplied"),
)


class SessionManager:
    """Hosts concurrent policy sessions over one shared hardware model.

    All sessions execute on the same APU/counter/overhead models (the
    machine being managed); each session hosts its own policy and keeps
    its own trace and statistics.  Sessions whose optimizers search one
    lattice with one predictor object read one sweep pool, owned by the
    manager: a sweep one session starts serves the others (see
    :meth:`add_session`).  The optimizer runs at
    ``MANAGER_CONFIG`` with no CPU phase to hide it, the
    :class:`~repro.runtime.session.SessionRuntime` defaults.

    Args:
        apu: Shared ground-truth hardware model.
        counters: Shared counter synthesizer.
        overhead: Shared decision-overhead model.
        enforce_tdp: Throttle over-TDP configurations before executing.
        isolate_faults: Fault-isolate hosted policies (the default for
            long-lived streaming service use).
        obs: Optional instrumentation shared by every hosted session
            (defaults to the no-op instrumentation).
    """

    def __init__(
        self,
        apu: Optional[APUModel] = None,
        counters: Optional[CounterSynthesizer] = None,
        overhead: Optional[OverheadModel] = None,
        enforce_tdp: bool = False,
        isolate_faults: bool = True,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.apu = apu if apu is not None else APUModel()
        self.counters = counters if counters is not None else CounterSynthesizer()
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.enforce_tdp = enforce_tdp
        # Set only by set_power_budget; add_session hands it to later
        # arrivals.
        self.power_budget_w: Optional[float] = None
        self.isolate_faults = isolate_faults
        self.obs = or_noop(obs)
        self._sessions: Dict[str, SessionRuntime] = {}
        # Sweep pools by (predictor id, lattice key), each stored with
        # its predictor so the id cannot be reused while the pool lives.
        self._pools: Dict[Tuple[int, Tuple], Tuple[Any, Dict[CounterVector, Any]]] = {}
        # Fallback sites that have logged their first fault.
        self._warned: set = set()
        # The batched_* counters, resolved at the first step_batch call
        # under live obs, when they register; the optimizers' sweep
        # counter at the first stacked start that obtains sweeps.
        self._m_batched: Optional[Tuple[Any, ...]] = None
        self._m_sweeps: Any = None

    # ----- session registry ------------------------------------------------------

    def add_session(self, session_id: str, policy: PowerPolicy, *,
                    app_name: str = "",
                    charge_overhead: bool = True) -> SessionRuntime:
        """Register a new session hosting ``policy``.

        The session gets the manager's power budget, and its optimizer
        (if any) the manager's sweep pool for its predictor object and
        lattice, shared by every hosted session on that pair.  Sweeps
        are pure functions of (counters, lattice, predictor), so sharing
        changes no decision, charge or count.  Managers on one predictor
        object never share a pool.

        Raises:
            ValueError: If the id is empty or already registered.
        """
        if not session_id:
            raise ValueError("session_id must be non-empty")
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already registered")
        session = SessionRuntime(
            policy=policy,
            apu=self.apu,
            counters=self.counters,
            overhead=self.overhead,
            enforce_tdp=self.enforce_tdp,
            isolate_faults=self.isolate_faults,
            session_id=session_id,
            app_name=app_name,
            charge_overhead=charge_overhead,
            obs=self.obs,
            power_budget_w=self.power_budget_w,
        )
        optimizer = getattr(policy, "optimizer", None)
        if optimizer is not None:
            predictor = optimizer.predictor
            key = (id(predictor), optimizer.space.lattice_key)
            optimizer.pool = self._pools.setdefault(key, (predictor, {}))[1]
        self._sessions[session_id] = session
        return session

    def session(self, session_id: str) -> SessionRuntime:
        """The registered session, or a clear error naming known ids."""
        try:
            return self._sessions[session_id]
        except KeyError:
            known = ", ".join(sorted(self._sessions)) or "<none>"
            raise KeyError(
                f"unknown session {session_id!r}; registered: {known}"
            ) from None

    def remove_session(self, session_id: str) -> SessionRuntime:
        """Deregister and return a session (its state stays usable)."""
        session = self.session(session_id)
        del self._sessions[session_id]
        return session

    def session_ids(self) -> List[str]:
        """Registered session ids, sorted."""
        return sorted(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    # ----- event routing ---------------------------------------------------------

    def dispatch(self, event: KernelLaunch) -> LaunchOutcome:
        """Route one event to its session and process it."""
        return self.session(event.session_id).process(event)

    def step_batch(self, events: Sequence[KernelLaunch]) -> List[LaunchOutcome]:
        """Process one launch per session with their sweeps started stacked.

        Each ready session's policy is asked (side-effect free) which
        counter vectors its upcoming decision will sweep; sessions are
        grouped by sweep pool (one per predictor object and search
        lattice, see :meth:`add_session`), the vectors of each group
        that neither its members nor its pool hold yet are
        deduplicated, and their sweeps are started into the pool with
        one stacked ``estimate_matrix_many`` call over their fail-safe
        crosses.  Every member then takes the sweeps it asked for
        through its optimizer's ``sweep_many``, which reads the pool
        and caches them under the member's own vector objects; members
        share a sweep, so rows one member's search computes serve the
        others.  The events are then dispatched normally, in order.

        Stacking pays only when sessions share a predictor object (as
        in ``repro bench decide`` and perfbench's ``tenants``
        workload); fleet nodes dispatch each launch, and their sessions
        on one predictor share sweeps through the pool alone.

        Decisions, per-session statistics, evaluation charges, and
        per-decision telemetry are identical to dispatching the events
        one at a time — the stacked rows are float-for-float what each
        session's own sweep would have produced, and fault isolation is
        unchanged (a failing prefetch or group sweep just leaves those
        sessions to sweep what they miss when they decide; each such
        fault increments ``repro_fallbacks_total{site,reason}``, and
        the first at each site logs a WARNING).

        Args:
            events: At most one launch per session; sessions are
                independent, so within-batch order is irrelevant to the
                results but preserved in the returned outcomes.

        Returns:
            One :class:`LaunchOutcome` per event, in input order.

        Raises:
            ValueError: If two events target the same session (their
                relative order would matter — stream those instead).
            KeyError: If an event names an unregistered session.
        """
        events = list(events)
        seen: set = set()
        for event in events:
            if event.session_id in seen:
                raise ValueError(
                    "step_batch events must target distinct sessions; "
                    f"{event.session_id!r} appears more than once"
                )
            seen.add(event.session_id)
        sessions = [self.session(event.session_id) for event in events]

        # Group prefetch requests by sweep pool, that is by (predictor,
        # lattice): one stacked start per group serves every member.
        groups: Dict[int, List[Tuple[Any, Tuple[CounterVector, ...]]]] = {}
        for event, session in zip(events, sessions):
            optimizer = getattr(session.policy, "optimizer", None)
            if optimizer is None:
                continue
            try:
                wanted = tuple(session.prefetch_counters(event))
            except Exception as error:
                # Fault isolation: a failing prefetch must not take the
                # batch down — the session sweeps when it decides and
                # any real fault surfaces through process() as usual.
                self._fell_back("step_batch.prefetch", error)
                continue
            if not wanted:
                continue
            groups.setdefault(id(optimizer.pool), []).append((optimizer, wanted))

        swept = 0
        missed = 0
        obtained = 0
        for members in groups.values():
            first = members[0][0]
            pool = first.pool
            unique: Dict[CounterVector, None] = {}
            counts = []
            for optimizer, wanted in members:
                misses = optimizer.missing(wanted)
                missed += len(misses)
                counts.append(len(misses))
                unique.update(dict.fromkeys(c for c in misses if c not in pool))
            if unique:
                try:
                    first.start_sweeps(list(unique))
                except Exception as error:
                    # Every member sweeps its misses when it decides,
                    # where a persistent fault surfaces through process().
                    self._fell_back("step_batch.group_sweep", error)
                    continue
                swept += len(unique)
            for (optimizer, wanted), count in zip(members, counts):
                optimizer.sweep_many(wanted)
                if optimizer.obs.enabled:
                    obtained += count

        if self.obs.enabled:
            self._fold(len(events), swept, missed - swept, obtained)

        return [self.dispatch(event) for event in events]

    def _fold(self, launches: int, swept: int, dedup_hits: int,
              obtained: int) -> None:
        """Count one ``step_batch`` call under one registry-lock hold;
        ``obtained`` is the sweeps instrumented members took from it."""
        registry = self.obs.registry
        if self._m_batched is None:
            self._m_batched = tuple(
                registry.counter(name, help) for name, help in _BATCHED_COUNTERS
            )
        if obtained and self._m_sweeps is None:
            self._m_sweeps = registry.counter("repro_optimizer_sweeps_total")
        steps, batched, sweeps, dedup = self._m_batched
        with registry.lock:
            steps.add(())
            batched.add((), launches)
            sweeps.add((), swept)
            dedup.add((), dedup_hits)
            if obtained:
                self._m_sweeps.add((), obtained)

    def _fell_back(self, site: str, error: Exception) -> None:
        """Count a fault a fallback absorbed; log a site's first one.

        The counter is registered here, on the fault path only, so
        fault-free metric snapshots stay as they were.
        """
        self.obs.registry.counter(
            "repro_fallbacks_total",
            "Faults absorbed by a fallback, by site and exception type",
        ).inc(site=site, reason=type(error).__name__)
        if site not in self._warned:
            self._warned.add(site)
            _log.warning(
                "%s fell back after %r; later faults there are only "
                "counted (repro_fallbacks_total)",
                site, error, exc_info=True,
            )

    # ----- power budget ----------------------------------------------------------

    def set_power_budget(self, watts: Optional[float]) -> None:
        """Update the node power budget live (fleet epoch entry point).

        Applies to every hosted session *and* to sessions added later;
        ``None`` removes the budget constraint.  Takes effect at each
        session's next launch — in-flight launches are not revisited,
        matching how a real power controller applies a new cap at the
        next scheduling quantum.
        """
        if watts is not None and watts <= 0:
            raise ValueError("power_budget_w must be positive")
        self.power_budget_w = watts
        for session in self._sessions.values():
            session.power_budget_w = watts

    def stats(self) -> Dict[str, SessionStats]:
        """Per-session statistics keyed by session id."""
        return {sid: s.stats for sid, s in sorted(self._sessions.items())}

    def aggregate_stats(self) -> SessionStats:
        """All sessions' statistics merged into one, with provenance.

        The merged object's ``sources`` counts the sessions folded in,
        so fleet-level reports can state how many sessions they cover.
        """
        total = SessionStats(sources=0)
        for _, session in sorted(self._sessions.items()):
            total.merge(session.stats)
        return total
