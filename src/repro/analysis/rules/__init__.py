"""Built-in rule catalogue; importing this package registers every rule.

Rule ids:

* ``RL001`` no-wallclock-on-hot-path (:mod:`.determinism`)
* ``RL002`` unseeded-rng (:mod:`.determinism`)
"""

from repro.analysis.rules import determinism  # noqa: F401

__all__ = ["determinism"]
