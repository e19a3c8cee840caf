"""Columnar decision core vs. a per-configuration reference, differentially.

The vectorization contract (see docs/VECTORIZATION.md) promises the
columnar hill-climb — one whole-lattice sweep per search, walked by
flat table index — is float-identical to the plain search that queries
each candidate configuration on its own.  That plain search lives only
here, in :mod:`.reference_search`; every adversarial scenario family
(and every Table-IV benchmark) is stamped under the shipping core and
then replayed — with checking on — under the reference.  Any drift in
any decision, measurement, or provenance flag is a hard failure.
"""

import pytest

from repro.workloads.suites import BENCHMARK_NAMES
from repro.workloads.traces import (
    FAMILIES,
    TraceReplayer,
    stamp_decisions,
    trace_from_benchmark,
)

from .reference_search import install_reference

pytestmark = pytest.mark.traces


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_path_reproduces_matrix_decisions(corpus, family, monkeypatch):
    stamped = stamp_decisions(corpus[family])
    oracles = install_reference(monkeypatch)
    scalar = TraceReplayer(stamped).replay()
    searching = any(s.policy.kind in ("mpc", "ppk") for s in stamped.header.sessions)
    assert (sum(oracle.answered for oracle in oracles) > 0) == searching
    assert scalar.checked == len(stamped.events)
    assert scalar.mismatches == []
    assert scalar.passed


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_and_matrix_stats_agree(corpus, family, monkeypatch):
    matrix = TraceReplayer(corpus[family]).replay()
    install_reference(monkeypatch)
    scalar = TraceReplayer(corpus[family]).replay()
    assert matrix.stats == scalar.stats
    assert matrix.decisions() == scalar.decisions()


def test_reference_reproduces_every_table_iv_benchmark(monkeypatch):
    stamped = [
        stamp_decisions(trace_from_benchmark(name, policy=policy))
        for name in BENCHMARK_NAMES
        for policy in ("mpc", "ppk")
    ]
    oracles = install_reference(monkeypatch)
    mismatches = []
    for trace in stamped:
        report = TraceReplayer(trace).replay()
        assert report.checked == len(trace.events), trace.header.name
        mismatches.extend(report.mismatches)
    assert len(stamped) == 30
    assert all(oracle.answered > 0 for oracle in oracles)
    assert mismatches == []
