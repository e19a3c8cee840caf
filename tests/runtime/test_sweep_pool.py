"""The sweep pool: one per (predictor object, lattice) per SessionManager.

Sessions a manager hosts on one predictor read one pool behind their
optimizers' own caches, so a counter value one session swept serves the
others; managers never share a pool, even on one predictor object.
"""

import pytest

from repro.core.optimizer import SWEEP_POOL_SIZE
from repro.core.policies import PPKPolicy
from repro.ml.predictors import OraclePredictor, PerfPowerPredictor
from repro.runtime.events import launch_events
from repro.runtime.manager import SessionManager

from .conftest import APP, COMPUTE, turbo_target

pytestmark = pytest.mark.runtime


class _Counting(PerfPowerPredictor):
    """Counts predictor calls, then delegates to an oracle."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def estimate_matrix_many(self, counters_list, table, indices=None):
        self.calls += 1
        return self.inner.estimate_matrix_many(counters_list, table, indices)


def _manager(sim):
    return SessionManager(apu=sim.apu, counters=sim.counters, overhead=sim.overhead)


def _host(manager, sim, predictor, ids):
    policies = {sid: PPKPolicy(turbo_target(sim), predictor) for sid in ids}
    for sid, policy in policies.items():
        manager.add_session(sid, policy)
    return policies


def _equal_vectors(sim, sequence=1):
    """Two distinct counter objects of one value, as two sessions observe."""
    first = sim.counters.observe(COMPUTE, sequence=sequence)
    second = sim.counters.observe(COMPUTE, sequence=sequence)
    assert first is not second and first == second
    return first, second


def test_sessions_of_one_manager_share_a_sweep(sim):
    predictor = OraclePredictor(sim.apu, APP.unique_kernels)
    policies = _host(_manager(sim), sim, predictor, ["a", "b"])
    a, b = (policies[sid].optimizer for sid in ("a", "b"))
    assert a.pool is b.pool
    first, second = _equal_vectors(sim)
    [sweep] = a.sweep_many([first])
    assert b.sweep_many([second]) == [sweep]
    assert b.sweep_many([second])[0] is sweep


def test_second_session_of_an_app_makes_no_predictor_call(sim):
    def run(ids):
        predictor = _Counting(OraclePredictor(sim.apu, APP.unique_kernels))
        manager = _manager(sim)
        _host(manager, sim, predictor, ids)
        records = {}
        for step in zip(*(launch_events(APP, session_id=sid) for sid in ids)):
            for event in step:
                records.setdefault(event.session_id, []).append(
                    manager.dispatch(event).record
                )
        return predictor.calls, records

    alone_calls, alone = run(["a"])
    paired_calls, paired = run(["a", "b"])
    assert alone_calls > 0
    assert paired_calls == alone_calls
    assert paired["a"] == paired["b"] == alone["a"]


def test_managers_on_one_predictor_share_no_sweeps(sim):
    predictor = OraclePredictor(sim.apu, APP.unique_kernels)
    (a,) = _host(_manager(sim), sim, predictor, ["a"]).values()
    (b,) = _host(_manager(sim), sim, predictor, ["a"]).values()
    assert a.optimizer.pool is not b.optimizer.pool
    first, second = _equal_vectors(sim)
    [sweep] = a.optimizer.sweep_many([first])
    [other] = b.optimizer.sweep_many([second])
    assert other is not sweep


def test_pool_keeps_only_its_most_recent_sweeps(sim):
    predictor = OraclePredictor(sim.apu, APP.unique_kernels)
    (policy,) = _host(_manager(sim), sim, predictor, ["a"]).values()
    optimizer = policy.optimizer
    vectors = [
        sim.counters.observe(COMPUTE, sequence=seq)
        for seq in range(2 * SWEEP_POOL_SIZE + 3)
    ]
    # One at a time, then one stacked start larger than the bound.
    for counters in vectors[:SWEEP_POOL_SIZE + 1]:
        optimizer.sweep_many([counters])
        assert len(optimizer.pool) <= SWEEP_POOL_SIZE
    optimizer.start_sweeps(vectors[SWEEP_POOL_SIZE + 1:])
    assert len(optimizer.pool) == SWEEP_POOL_SIZE
    assert list(optimizer.pool) == vectors[-SWEEP_POOL_SIZE:]


def test_unhosted_optimizer_keeps_only_its_own_cache(sim):
    policy = PPKPolicy(turbo_target(sim), OraclePredictor(sim.apu, APP.unique_kernels))
    optimizer = policy.optimizer
    assert optimizer.pool is None
    first, second = _equal_vectors(sim)
    [sweep] = optimizer.sweep_many([first])
    # The cache compares keys by value while the first key lives ...
    assert optimizer.sweep_many([second])[0] is sweep
    # ... and nothing keeps the sweep once that key is gone.
    del first
    assert optimizer.sweep_many([second])[0] is not sweep
