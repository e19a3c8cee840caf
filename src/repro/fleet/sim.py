"""The fleet simulator: epochs, placement, and the budget hierarchy.

:class:`FleetSimulator` drives a multi-session kernel-launch trace
through N simulated nodes.  The event walk is the arrival schedule:
sessions are placed on the least-loaded node the first time they
launch, their events buffer per node, and every ``epoch_launches``
dispatched events the fleet flushes an **epoch**, one
:meth:`~repro.fleet.node.FleetNode.epoch` message each way per node:

1. each node applies the budget apportioned at the previous epoch
   (the throttle cap every hosted policy sees), places its newly
   admitted sessions and dispatches its buffered slice one launch at a
   time, in order,
2. in the same reply each node reports epoch-windowed demand (power,
   throughput) and drains its metrics and spans,
3. node registries and spans merge parent-side, and the
   :class:`~repro.fleet.budget.BudgetAllocator` re-apportions the
   global cap; the new per-node budgets are recorded and travel with
   the next epoch's message (the last epoch's are recorded only: no
   launch follows them),
4. one ``epoch`` span is emitted, and queued sessions are placed into
   freed capacity.

With ``cap_w=None`` no budget is ever apportioned, so a fleet of one
node reproduces the streaming ``SessionManager`` decisions
float-for-float (the differential contract, ``tests/fleet/``); with a
cap, conservation — sum of node budgets never above the cap — is
asserted by the allocator at every epoch and recorded per epoch in
the report for the safety tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.budget import BudgetAllocator, NodeDemand
from repro.fleet.shard import InlineShard, ProcessShard
from repro.obs import make_instrumentation
from repro.runtime.session import SessionStats
from repro.workloads.traces.format import RecordedDecision, Trace, TraceEvent

__all__ = ["EpochRecord", "FleetReport", "FleetSimulator", "TRANSPORTS"]

#: Shard transports the simulator can drive.
TRANSPORTS = ("inline", "process")


@dataclass(frozen=True)
class EpochRecord:
    """One epoch re-negotiation, as recorded in the fleet report.

    ``budgets`` is empty when the fleet runs uncapped; when capped,
    ``sum(budgets.values()) <= cap_w`` at every epoch (the budget
    safety invariant the tests re-check).
    """

    epoch: int
    launches: int
    cap_w: Optional[float]
    demands: Tuple[NodeDemand, ...]
    budgets: Dict[str, float]


@dataclass
class FleetReport:
    """Everything one fleet run produced.

    Attributes:
        decisions: Per-session decision sequences, in each session's
            launch order (the objects the differential tests compare
            float-for-float against streaming replay).
        stats: Per-session statistics, keyed by session id.
        placement: Final session → node-id map (queued-then-placed and
            migrated sessions show their last host).
        epochs: One :class:`EpochRecord` per epoch, in order.
        queued: Sessions that waited in the admission queue.
        shed: Sessions dropped because queue and fleet were full.
        registry: The fleet-level metrics registry (node registries
            merged in every epoch).
        spans: All spans: node launch spans plus the parent's ``epoch``
            spans, in emission order.
    """

    nodes: int
    decisions: Dict[str, List[RecordedDecision]] = field(default_factory=dict)
    stats: Dict[str, SessionStats] = field(default_factory=dict)
    placement: Dict[str, str] = field(default_factory=dict)
    epochs: List[EpochRecord] = field(default_factory=list)
    queued: int = 0
    shed: int = 0
    registry: Any = None
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def aggregate_stats(self) -> SessionStats:
        """Every session's statistics merged, with provenance."""
        total = SessionStats(sources=0)
        for _, stats in sorted(self.stats.items()):
            total.merge(stats)
        return total

    def launches(self) -> int:
        """Total launches processed across the fleet."""
        return sum(len(seq) for seq in self.decisions.values())


class FleetSimulator:
    """Shards a trace's sessions across N nodes under one power cap.

    Args:
        trace: The multi-session trace to drive (validated up front).
        nodes: Fleet size.
        cap_w: Global power cap; ``None`` runs uncapped (no budget is
            ever apportioned — the fleet-of-one differential mode).
        epoch_launches: Dispatched launches per budget epoch.
        transport: ``"inline"`` (in-process nodes) or ``"process"``
            (one long-lived worker process per node).
        max_sessions_per_node: Admission limit; arrivals beyond it
            queue, and queue overflow beyond ``max_queued`` sheds.
        max_queued: Admission-queue capacity (``None`` = unbounded).
        rebalance: Migrate one session from the most- to the
            least-loaded node at each epoch boundary when they differ
            by two or more (snapshot/restore migration; decisions are
            placement-invariant, so rebalancing never changes them).
        cache_dir: Random Forest cache directory.

    A capped fleet apportions through a
    :class:`~repro.fleet.budget.BudgetAllocator` with its default floor
    and headroom.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        nodes: int = 1,
        cap_w: Optional[float] = None,
        epoch_launches: int = 32,
        transport: str = "inline",
        max_sessions_per_node: Optional[int] = None,
        max_queued: Optional[int] = None,
        rebalance: bool = False,
        cache_dir: str = ".cache",
    ) -> None:
        if nodes < 1:
            raise ValueError("nodes must be at least 1")
        if epoch_launches < 1:
            raise ValueError("epoch_launches must be at least 1")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; known: {TRANSPORTS}"
            )
        if max_sessions_per_node is not None and max_sessions_per_node < 1:
            raise ValueError("max_sessions_per_node must be at least 1")
        if max_queued is not None and max_queued < 0:
            raise ValueError("max_queued must be non-negative")
        self.trace = trace.ensure_valid()
        self.nodes = nodes
        self.cap_w = cap_w
        self.epoch_launches = epoch_launches
        self.transport = transport
        self.max_sessions_per_node = max_sessions_per_node
        self.max_queued = max_queued
        self.rebalance = rebalance
        self.cache_dir = cache_dir
        self.allocator = BudgetAllocator(cap_w) if cap_w is not None else None

    # ----- shard construction ---------------------------------------------------

    def _build_shards(self, stack: Any) -> List[Any]:
        node_kwargs = {
            "enforce_tdp": self.trace.header.enforce_tdp,
            "cache_dir": self.cache_dir,
        }
        shard_class = InlineShard if self.transport == "inline" else ProcessShard
        shards: List[Any] = []
        for i in range(self.nodes):
            shard = shard_class(f"node-{i}", **node_kwargs)
            stack.callback(shard.close)
            shards.append(shard)
        return shards

    # ----- the run --------------------------------------------------------------

    def run(self) -> FleetReport:
        """Drive the whole trace; returns the fleet report.

        Each run builds its own instrumentation, so a report's registry
        and spans cover that run only.
        """
        import contextlib

        obs = make_instrumentation()
        registry = obs.registry
        tracer = obs.tracer
        report = FleetReport(nodes=self.nodes, registry=registry)

        remaining = {
            sid: len(self.trace.events_for(sid))
            for sid in self.trace.session_ids()
        }
        placement: Dict[str, int] = {}
        active: List[set] = [set() for _ in range(self.nodes)]
        departed: set = set()
        shed: set = set()
        queued: Dict[str, List[TraceEvent]] = {}
        queued_order: List[str] = []

        with contextlib.ExitStack() as stack:
            shards = self._build_shards(stack)
            pending_new: List[List[Tuple[Any, Any]]] = [[] for _ in shards]
            buffers: List[List[TraceEvent]] = [[] for _ in shards]
            # Apportioned at the last epoch; rides with the next one.
            next_budgets: Dict[str, float] = {}
            epoch = 0

            def capacity_node() -> Optional[int]:
                """Least-loaded node with admission capacity, or None."""
                best: Optional[int] = None
                for i in range(self.nodes):
                    load = len(active[i])
                    if (
                        self.max_sessions_per_node is not None
                        and load >= self.max_sessions_per_node
                    ):
                        continue
                    if best is None or load < len(active[best]):
                        best = i
                return best

            def place(sid: str, node: int) -> None:
                placement[sid] = node
                active[node].add(sid)
                report.placement[sid] = shards[node].node_id
                pending_new[node].append(
                    (self.trace.session(sid), self.trace.unique_kernels(sid))
                )

            def flush() -> int:
                """Run one epoch; returns events pre-buffered for the next."""
                nonlocal epoch, next_budgets
                launches = sum(len(b) for b in buffers)
                if launches == 0 and not any(pending_new):
                    return 0
                for i, shard in enumerate(shards):
                    # Slim launches: specs cross once with their
                    # session, only keys ride the pipe per event.
                    shard.post(
                        "epoch",
                        next_budgets.get(shard.node_id),
                        pending_new[i],
                        [(e.index, e.session, e.spec.key) for e in buffers[i]],
                    )
                demands: List[NodeDemand] = []
                for shard in shards:
                    ((decisions, demand, (drain, spans)),) = shard.collect()
                    for sid, _index, decision in decisions:
                        report.decisions.setdefault(sid, []).append(decision)
                    demands.append(NodeDemand(**demand))
                    registry.merge(drain)
                    for span in spans:
                        tracer.emit(span)
                for i, buffer in enumerate(buffers):
                    for event in buffer:
                        remaining[event.session] -= 1
                    for sid in {e.session for e in buffer}:
                        if remaining[sid] == 0:
                            departed.add(sid)
                            active[i].discard(sid)
                    pending_new[i] = []
                    buffers[i] = []

                # Budget re-negotiation under the global cap; the nodes
                # get the new budgets with the next epoch's message.
                budgets: Dict[str, float] = {}
                if self.allocator is not None:
                    budgets = self.allocator.apportion(demands)
                    for node_id, watts in budgets.items():
                        registry.gauge(
                            "repro_fleet_node_budget_watts",
                            "Per-node power budget apportioned at the "
                            "last epoch",
                        ).set(watts, node=node_id)

                registry.counter(
                    "repro_fleet_epochs_total", "Fleet budget epochs completed"
                ).inc()
                span = tracer.start_span(
                    "epoch",
                    at=float(epoch),
                    epoch=epoch,
                    nodes=self.nodes,
                    launches=launches,
                    sessions=len(placement) - len(departed),
                )
                if self.cap_w is not None:
                    span.annotate("cap_w", self.cap_w)
                    span.annotate(
                        "budget_total_w", sum(budgets.values())
                    )
                tracer.end_span(span, at=float(epoch + 1))
                report.epochs.append(
                    EpochRecord(
                        epoch=epoch,
                        launches=launches,
                        cap_w=self.cap_w,
                        demands=tuple(demands),
                        budgets=budgets,
                    )
                )
                next_budgets = budgets
                epoch += 1

                # Admit queued sessions into freed capacity; their
                # buffered events open the next epoch.
                prefill = 0
                while queued_order:
                    node = capacity_node()
                    if node is None:
                        break
                    sid = queued_order.pop(0)
                    place(sid, node)
                    backlog = queued.pop(sid)
                    buffers[node].extend(backlog)
                    prefill += len(backlog)

                if self.rebalance and self.nodes > 1:
                    self._rebalance_once(
                        shards, placement, active, report, registry
                    )
                return prefill

            epoch_fill = 0
            for event in self.trace.events:
                sid = event.session
                if sid in shed:
                    continue
                if sid in queued:
                    queued[sid].append(event)
                    continue
                if sid not in placement:
                    node = capacity_node()
                    if node is None:
                        if (
                            self.max_queued is not None
                            and len(queued_order) >= self.max_queued
                        ):
                            shed.add(sid)
                            report.shed += 1
                            registry.counter(
                                "repro_fleet_sessions_shed_total",
                                "Sessions dropped: fleet and queue full",
                            ).inc()
                        else:
                            queued[sid] = [event]
                            queued_order.append(sid)
                            report.queued += 1
                            registry.counter(
                                "repro_fleet_sessions_queued_total",
                                "Sessions admitted through the wait queue",
                            ).inc()
                        continue
                    place(sid, node)
                buffers[placement[sid]].append(event)
                epoch_fill += 1
                if epoch_fill >= self.epoch_launches:
                    epoch_fill = flush()

            # Tail flushes: the partial last epoch, then any queued
            # backlog admitted into capacity it freed.
            while any(buffers) or any(pending_new):
                flush()

            # Final stats sweep.
            for shard in shards:
                shard.post("stats")
            for shard in shards:
                (stats,) = shard.collect()
                report.stats.update(stats)

        report.spans = tracer.drain()
        return report

    def _rebalance_once(
        self,
        shards: List[Any],
        placement: Dict[str, int],
        active: List[set],
        report: FleetReport,
        registry: Any,
    ) -> None:
        """Migrate one session from the most- to the least-loaded node.

        Uses the runtime's snapshot/restore: the session's policy state
        moves byte-for-byte, and because decisions are
        placement-invariant the migrated session's remaining decisions
        are unchanged (asserted by ``tests/fleet/test_migration.py``).
        """
        loads = [len(a) for a in active]
        src = max(range(len(shards)), key=lambda i: loads[i])
        dst = min(range(len(shards)), key=lambda i: loads[i])
        if loads[src] - loads[dst] < 2:
            return
        sid = sorted(active[src])[0]
        shards[src].post("snapshot_session", sid)
        (payload,) = shards[src].collect()
        shards[dst].post("restore_session", payload)
        shards[dst].collect()
        shards[src].post("remove_session", sid)
        shards[src].collect()
        active[src].discard(sid)
        active[dst].add(sid)
        placement[sid] = dst
        report.placement[sid] = shards[dst].node_id
        registry.counter(
            "repro_fleet_migrations_total",
            "Sessions migrated between nodes by the rebalancer",
        ).inc()
