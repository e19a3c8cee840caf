"""Built-in rule catalogue; importing this package registers every rule.

Rule ids:

* ``RL001`` no-wallclock-on-hot-path (:mod:`.determinism`)
* ``RL002`` unseeded-rng (:mod:`.determinism`)
* ``RL004`` worker-pickle-safety (:mod:`.concurrency`)
* ``RL009`` lock-discipline (:mod:`.locks`) — flow-sensitive
* ``RL012`` unguarded-shared-mutation (:mod:`.shared_state`) — flow-sensitive
"""

from repro.analysis.rules import (  # noqa: F401
    concurrency,
    determinism,
    locks,
    shared_state,
)

__all__ = [
    "concurrency",
    "determinism",
    "locks",
    "shared_state",
]
