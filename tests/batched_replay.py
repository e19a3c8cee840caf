"""Replaying a trace through ``SessionManager.step_batch``.

``TraceReplayer`` dispatches one launch at a time.  The differential
and observability tests step the same sessions, built the same way, in
maximal distinct-session chunks instead, to check that batching
decides, counts and monitors exactly as one-at-a-time dispatch does.
"""

from repro.obs import make_instrumentation
from repro.runtime.manager import chunk_distinct_sessions
from repro.workloads.traces import TraceReplayer
from repro.workloads.traces.replay import ReplayReport


def replay_batched(trace):
    """``trace`` stepped through ``step_batch`` under live, health-on
    instrumentation, as a report holding the outcomes in trace order,
    the per-session stats, the registry and the health monitor (no
    decisions are checked, no assertions evaluated and no spans
    drained)."""
    obs = make_instrumentation(health=True)
    manager = TraceReplayer(trace)._build_manager(obs)
    report = ReplayReport(trace=trace, registry=obs.registry, health=obs.health)
    for chunk in chunk_distinct_sessions(trace.events, key=lambda e: e.session):
        report.outcomes.extend(
            manager.step_batch([event.as_launch() for event in chunk])
        )
    report.stats = {
        sid: manager.session(sid).stats for sid in manager.session_ids()
    }
    return report
