"""The fleet determinism contract.

Same seed + same shard count => identical per-session decisions,
placement, and per-epoch budgets — run to run, and transport to
transport.
"""

import json

import pytest

from repro.fleet import FleetSimulator
from repro.obs.exporters import prometheus_text

pytestmark = pytest.mark.fleet


def fingerprint(report):
    return (
        report.decisions,
        report.placement,
        [(e.epoch, e.launches, e.budgets) for e in report.epochs],
        {sid: stats for sid, stats in report.stats.items()},
    )


def test_same_seed_same_shards_is_identical(corpus):
    trace = corpus["serverless"]
    first = FleetSimulator(
        trace, nodes=3, cap_w=150.0, epoch_launches=8
    ).run()
    second = FleetSimulator(
        trace, nodes=3, cap_w=150.0, epoch_launches=8
    ).run()
    assert fingerprint(first) == fingerprint(second)


def test_regenerated_trace_reproduces_the_fleet_run(corpus):
    """The workload seed pins the whole fleet, not just the trace."""
    from repro.workloads.traces import ScenarioGenerator

    regenerated = ScenarioGenerator(seed=0).generate("serverless")
    first = FleetSimulator(
        corpus["serverless"], nodes=2, cap_w=120.0, epoch_launches=8
    ).run()
    second = FleetSimulator(
        regenerated, nodes=2, cap_w=120.0, epoch_launches=8
    ).run()
    assert fingerprint(first) == fingerprint(second)


def test_process_transport_matches_inline(corpus):
    """The worker-process shard protocol is observably the inline one."""
    trace = corpus["serverless"]
    inline = FleetSimulator(
        trace, nodes=2, cap_w=150.0, epoch_launches=16
    ).run()
    process = FleetSimulator(
        trace, nodes=2, cap_w=150.0, epoch_launches=16, transport="process"
    ).run()
    assert fingerprint(process) == fingerprint(inline)
    # Merged node metrics agree too (e.g. throttle counts).
    name = "repro_runtime_tdp_throttles_total"
    assert process.registry.counter(name).total() == inline.registry.counter(
        name
    ).total()


def test_second_run_on_one_simulator_reports_the_same(corpus):
    """Each run counts into its own registry: a rerun neither
    double-counts nor rewrites the first run's report."""
    sim = FleetSimulator(corpus["serverless"], nodes=2, cap_w=250.0)
    first = sim.run()
    first_metrics = prometheus_text(first.registry)
    first_spans = [json.dumps(span, sort_keys=True) for span in first.spans]
    second = sim.run()

    assert first.registry.counter("repro_fleet_epochs_total").total() == 2
    assert prometheus_text(second.registry) == first_metrics
    assert [json.dumps(span, sort_keys=True) for span in second.spans] == (
        first_spans
    )
    assert fingerprint(second) == fingerprint(first)
    assert prometheus_text(first.registry) == first_metrics
