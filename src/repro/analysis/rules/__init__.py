"""Built-in rule catalogue; importing this package registers every rule.

Rule ids:

* ``RL001`` no-wallclock-on-hot-path (:mod:`.determinism`)
* ``RL002`` unseeded-rng (:mod:`.determinism`)
* ``RL003`` fingerprint-coverage (:mod:`.fingerprint`)
* ``RL004`` worker-pickle-safety (:mod:`.concurrency`)
* ``RL005`` obs-purity (:mod:`.obs`)
* ``RL006`` mutable-default-config (:mod:`.config`)
* ``RL008`` trace-schema-coverage (:mod:`.traces`)
* ``RL009`` lock-discipline (:mod:`.locks`) — flow-sensitive
* ``RL011`` memo-staleness (:mod:`.memo`) — flow-sensitive
* ``RL012`` unguarded-shared-mutation (:mod:`.shared_state`) — flow-sensitive
* ``RL013`` budget-conservation (:mod:`.budget`)
"""

from repro.analysis.rules import (  # noqa: F401
    budget,
    concurrency,
    config,
    determinism,
    fingerprint,
    locks,
    memo,
    obs,
    shared_state,
    traces,
)

__all__ = [
    "budget",
    "concurrency",
    "config",
    "determinism",
    "fingerprint",
    "locks",
    "memo",
    "obs",
    "shared_state",
    "traces",
]
