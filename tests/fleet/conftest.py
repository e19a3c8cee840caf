"""Shared fixtures for the fleet-simulation test suite.

The differential tests reuse the adversarial scenario corpus (one
generated trace per family at the harness seed); the placement,
admission, and migration tests run hand-built schedules over the same
small kernel pair the runtime suite uses, so every test stays inside
tier-1-style time budgets.
"""

from typing import Dict, Sequence

import pytest

from repro.workloads.traces import (
    FAMILIES,
    PolicySpec,
    ScenarioGenerator,
    SessionSpec,
    Trace,
    TraceEvent,
    TraceHeader,
)

from tests.traces.conftest import COMPUTE, MEMORY, turbo_target

#: The seed the fleet differential harness runs at (matches the
#: differential suite and the checked-in golden traces).
SEED = 0


@pytest.fixture(scope="session")
def corpus():
    """Every adversarial family's trace at the harness seed."""
    generator = ScenarioGenerator(seed=SEED)
    return {family: generator.generate(family) for family in FAMILIES}


def build_schedule_trace(
    schedule: Sequence[str],
    *,
    name: str = "fleet-mini",
    policy_kind: str = "mpc",
    predictor: str = "oracle",
    **header_kw,
) -> Trace:
    """A trace whose event order *is* ``schedule`` (one id per event).

    Each session's launches alternate the compute/memory pair with
    per-session sequential indices, so arrival order, interleaving,
    and departure points are exactly what the schedule spells out —
    the control the placement/admission/migration tests need.
    """
    counts: Dict[str, int] = {}
    events = []
    for sid in schedule:
        index = counts.get(sid, 0)
        spec = COMPUTE if index % 2 == 0 else MEMORY
        events.append(TraceEvent(index=index, session=sid, spec=spec))
        counts[sid] = index + 1
    policy = PolicySpec(
        kind=policy_kind, target_throughput=turbo_target(), predictor=predictor
    )
    header = TraceHeader(
        name=name,
        source="test:fleet",
        sessions=tuple(
            SessionSpec(session_id=sid, app_name="alt", policy=policy)
            for sid in sorted(counts)
        ),
        **header_kw,
    )
    return Trace(header=header, events=tuple(events)).ensure_valid()
