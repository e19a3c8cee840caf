"""Replaying a trace through ``SessionManager.step_batch``.

``TraceReplayer`` dispatches one launch at a time.  The differential
and observability tests step the same sessions, built the same way, in
maximal distinct-session chunks instead, to check that batching
decides, counts and monitors exactly as one-at-a-time dispatch does.
"""

from repro.obs import make_instrumentation
from repro.workloads.traces import TraceReplayer
from repro.workloads.traces.replay import ReplayReport


def distinct_session_chunks(events):
    """Split ``events`` into maximal runs of distinct sessions, in order.

    A chunk closes as soon as a session repeats, so each chunk is a
    legal ``step_batch`` input and per-session order is preserved.
    """
    chunks, chunk, sessions = [], [], set()
    for event in events:
        if event.session in sessions:
            chunks.append(chunk)
            chunk, sessions = [], set()
        chunk.append(event)
        sessions.add(event.session)
    if chunk:
        chunks.append(chunk)
    return chunks


def replay_batched(trace):
    """``trace`` stepped through ``step_batch`` under live, health-on
    instrumentation, as a report holding the outcomes in trace order,
    the per-session stats, the registry and the health monitor (no
    decisions are checked, no assertions evaluated and no spans
    drained)."""
    obs = make_instrumentation(health=True)
    manager = TraceReplayer(trace)._build_manager(obs)
    report = ReplayReport(trace=trace, registry=obs.registry, health=obs.health)
    for chunk in distinct_session_chunks(trace.events):
        report.outcomes.extend(
            manager.step_batch([event.as_launch() for event in chunk])
        )
    report.stats = {
        sid: manager.session(sid).stats for sid in manager.session_ids()
    }
    return report
