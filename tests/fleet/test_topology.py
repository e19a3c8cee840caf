"""Process-fleet topology: the parent hosts node-0, workers the rest.

Under ``transport="process"`` the parent computes ``node-0`` through
an :class:`InlineShard` while one worker process per later node
computes the others, so a 1-node process fleet starts no worker at
all.  These tests pin that topology and that it changes no output:
decisions, span JSONL and Prometheus text equal the inline run's, also
when sessions migrate between the parent's node and a worker.
"""

import json
import multiprocessing

import pytest

from repro.fleet import FleetSimulator, InlineShard, ProcessShard
from repro.obs.exporters import prometheus_text

from tests.fleet.conftest import build_schedule_trace
from tests.fleet.test_determinism import fingerprint
from tests.fleet.test_protocol import recorded_run

pytestmark = pytest.mark.fleet

#: Two nodes, 16-launch epochs.  a and c (4 launches each) land on
#: node-0 and leave in epoch 1, so b moves node-1 -> node-0.  In
#: epoch 2, e and g join node-0, f joins node-1 and d leaves it, so b
#: moves back node-0 -> node-1.
TWO_WAY = (
    ["a", "b", "c", "d"] * 4
    + ["b", "d", "e", "f", "g"] * 3 + ["b"]
    + ["b", "e", "f", "g"] * 4
)


def observed_run(sim):
    """Run ``sim``; returns (report, shards, children while running)."""
    seen = {}
    build = sim._build_shards

    def build_and_look(stack):
        seen["shards"] = build(stack)
        seen["children"] = multiprocessing.active_children()
        return seen["shards"]

    sim._build_shards = build_and_look
    return sim.run(), seen["shards"], seen["children"]


def outputs(report):
    """What a run writes: its fingerprint, span JSONL and metrics."""
    spans = "".join(json.dumps(s, sort_keys=True) + "\n" for s in report.spans)
    return fingerprint(report), spans, prometheus_text(report.registry)


def test_three_node_process_fleet_starts_two_workers(corpus):
    before = set(multiprocessing.active_children())
    sim = FleetSimulator(
        corpus["serverless"], nodes=3, cap_w=150.0, epoch_launches=8,
        transport="process",
    )
    report, shards, children = observed_run(sim)
    assert report.launches() == len(corpus["serverless"].events)

    assert [s.node_id for s in shards] == ["node-0", "node-1", "node-2"]
    assert isinstance(shards[0], InlineShard)
    assert all(isinstance(s, ProcessShard) for s in shards[1:])
    workers = set(children) - before
    assert len(workers) == 2
    assert {w.pid for w in workers} == {s._process.pid for s in shards[1:]}
    # Every worker is reaped when the run ends.
    assert not workers & set(multiprocessing.active_children())
    assert all(w.exitcode is not None for w in workers)


def test_one_node_process_fleet_is_the_inline_run(corpus):
    before = set(multiprocessing.active_children())
    trace = corpus["serverless"]
    process, shards, children = observed_run(FleetSimulator(
        trace, cap_w=60.0, epoch_launches=8, transport="process"
    ))
    inline = FleetSimulator(trace, cap_w=60.0, epoch_launches=8).run()

    assert [type(s) for s in shards] == [InlineShard]
    assert set(children) - before == set()
    assert outputs(process) == outputs(inline)


def test_sessions_migrate_both_ways_between_parent_and_worker():
    trace = build_schedule_trace(TWO_WAY, name="fleet-two-way")
    runs = {}
    for transport in ("inline", "process"):
        sim = FleetSimulator(
            trace, nodes=2, cap_w=60.0, epoch_launches=16, rebalance=True,
            transport=transport,
        )
        runs[transport] = recorded_run(sim)
    (inline, _), (process, log) = runs["inline"], runs["process"]

    restores = [n for n, kind, c in log if kind == "post" and c == "restore_session"]
    assert restores == ["node-0", "node-1"]
    assert process.registry.counter("repro_fleet_migrations_total").total() == 2
    assert process.placement["b"] == "node-1"
    assert outputs(process) == outputs(inline)
