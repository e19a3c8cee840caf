"""Built-in rule catalogue; importing this package registers every rule.

Rule ids:

* ``RL001`` no-wallclock-on-hot-path (:mod:`.determinism`)
* ``RL002`` unseeded-rng (:mod:`.determinism`)
* ``RL004`` worker-pickle-safety (:mod:`.concurrency`)
"""

from repro.analysis.rules import concurrency, determinism  # noqa: F401

__all__ = ["concurrency", "determinism"]
