"""The epoch protocol: one message each way per node per epoch.

A budget epoch reaches each node as a single ``epoch`` command that
carries the budget apportioned at the previous epoch, so these tests
count what the simulator posts and check that the budget is in place
when the next epoch's first launch runs — and that nothing else moves.
"""

import pytest

from repro.fleet import FleetSimulator

from tests.fleet.conftest import build_schedule_trace
from tests.fleet.test_migration import IMBALANCE

pytestmark = pytest.mark.fleet


class RecordingShard:
    """Forwards to a shard, logging every post and collect."""

    def __init__(self, shard, log):
        self._shard = shard
        self.node_id = shard.node_id
        self._log = log

    def post(self, command, *args):
        self._log.append((self.node_id, "post", command))
        self._shard.post(command, *args)

    def collect(self):
        self._log.append((self.node_id, "collect", None))
        return self._shard.collect()

    def close(self):
        self._shard.close()


def recorded_run(sim):
    """Run ``sim`` with every shard wrapped; returns (report, log)."""
    log = []
    build = sim._build_shards

    def build_recording(stack):
        return [RecordingShard(shard, log) for shard in build(stack)]

    sim._build_shards = build_recording
    return sim.run(), log


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_capped_run_posts_one_command_per_node_per_epoch(corpus, transport):
    sim = FleetSimulator(
        corpus["serverless"], nodes=2, cap_w=120.0, epoch_launches=8,
        transport=transport,
    )
    report, log = recorded_run(sim)
    epochs = len(report.epochs)
    assert epochs > 1
    for node_id in ("node-0", "node-1"):
        posts = [c for n, kind, c in log if n == node_id and kind == "post"]
        collects = [c for n, kind, c in log if n == node_id and kind == "collect"]
        assert posts == ["epoch"] * epochs + ["stats"]
        assert len(collects) == epochs + 1


def budgets_at_each_step(sim):
    """Run ``sim`` inline, recording the budgets each dispatch sees.

    Returns the report and one ``(node_id, epoch, manager budget,
    session budget)`` row per ``dispatch`` call, where ``epoch``
    counts the node's ``epoch`` commands before the call and the
    session budget is the dispatched launch's session's.
    """
    rows = []
    build = sim._build_shards

    def instrument(node):
        epochs = []
        run_epoch = node.epoch
        dispatch = node.manager.dispatch

        def epoch(*args):
            epochs.append(None)
            return run_epoch(*args)

        def recording_dispatch(launch):
            rows.append((
                node.node_id,
                len(epochs) - 1,
                node.manager.power_budget_w,
                node.manager.session(launch.session_id).power_budget_w,
            ))
            return dispatch(launch)

        node.epoch = epoch
        node.manager.dispatch = recording_dispatch

    def build_instrumented(stack):
        shards = build(stack)
        for shard in shards:
            instrument(shard.node)
        return shards

    sim._build_shards = build_instrumented
    return sim.run(), rows


@pytest.mark.parametrize("migrate", [False, True], ids=["serverless", "migration"])
def test_budget_is_in_place_at_the_next_epochs_first_launch(corpus, migrate):
    if migrate:
        sim = FleetSimulator(
            build_schedule_trace(IMBALANCE), nodes=2, cap_w=60.0,
            epoch_launches=16, rebalance=True,
        )
    else:
        sim = FleetSimulator(
            corpus["serverless"], nodes=2, cap_w=120.0, epoch_launches=8
        )
    report, rows = budgets_at_each_step(sim)
    if migrate:
        migrations = report.registry.counter("repro_fleet_migrations_total")
        assert migrations.total() == 1
    assert any(epoch > 0 for _, epoch, _, _ in rows)
    for node_id, epoch, budget, session_budget in rows:
        expected = (
            None if epoch == 0 else report.epochs[epoch - 1].budgets[node_id]
        )
        assert budget == expected
        assert session_budget == expected


def test_uncapped_run_never_sets_a_budget(corpus):
    report, rows = budgets_at_each_step(
        FleetSimulator(corpus["serverless"], nodes=2, epoch_launches=8)
    )
    assert rows
    assert all(record.budgets == {} for record in report.epochs)
    for _, _, budget, session_budget in rows:
        assert budget is None
        assert session_budget is None
