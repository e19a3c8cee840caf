"""Determinism rules: RL001 no-wallclock-on-hot-path, RL002 unseeded-rng.

**RL001** — simulated-time discipline.  The simulator, the streaming
runtime, the MPC core, and the tracer all operate in *simulated* time:
two runs of the same workload must produce byte-identical results and
traces regardless of host speed.  Reading the wall clock anywhere on
those paths breaks that (and with it the engine's content-addressed
cache, whose acceptance bar is bit-identical recomputation).  The wall
clock is legitimately read in the engine's timing blocks
(``repro/engine/``) and the experiment runner (``repro/experiments/``)
— those paths are the rule's allowlist and are simply not scoped.

**RL002** — every random draw must come from an explicitly seeded
generator.  Unseeded ``numpy.random.default_rng()`` (or bit
generators), and any use of the process-global numpy/stdlib RNGs, make
results depend on process history and break reproducibility and the
cache-fingerprint contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.index import ModuleInfo, path_matches
from repro.analysis.registry import rule

__all__ = ["check_wallclock", "check_unseeded_rng"]

#: Paths where wall-clock reads are banned (simulated-time hot paths).
HOT_PATHS = (
    "repro/sim/",
    "repro/runtime/",
    "repro/core/",
    "repro/obs/tracing.py",
)

#: Paths where wall-clock reads are legitimate (engine timing blocks,
#: experiment wall-time reporting).  Documented allowlist: these are
#: deliberately outside :data:`HOT_PATHS`.
WALLCLOCK_ALLOWED_PATHS = ("repro/engine/", "repro/experiments/")

#: Fully-qualified wall-clock reads banned on hot paths.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Legacy process-global numpy RNG entry points (always banned).
_NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "normal",
        "uniform", "standard_normal", "exponential", "poisson", "bytes",
        "random_integers",
    }
)

#: numpy bit generators that must receive an explicit seed.
_NUMPY_BIT_GENERATORS = frozenset(
    {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)

#: stdlib ``random`` module-level functions (process-global RNG).
_STDLIB_GLOBAL_RNG = frozenset(
    {
        "seed", "random", "randint", "randrange", "uniform", "choice",
        "choices", "shuffle", "sample", "gauss", "normalvariate",
        "betavariate", "expovariate", "triangular", "getrandbits",
        "randbytes", "vonmisesvariate", "paretovariate", "weibullvariate",
        "lognormvariate",
    }
)


def _has_seed_argument(call: ast.Call) -> bool:
    """Whether a generator construction passes any seed material."""
    return bool(call.args) or bool(call.keywords)


@rule(
    "RL001",
    "no-wallclock-on-hot-path",
    "simulated-time code must never read the wall clock "
    "(inject a clock or pass time explicitly)",
)
def check_wallclock(module: ModuleInfo) -> Iterator[Finding]:
    """Flag wall-clock reads in simulated-time modules."""
    if not any(path_matches(module.rel_path, hot) for hot in HOT_PATHS):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve(node.func)
        if resolved in WALLCLOCK_CALLS:
            yield Finding(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id="RL001",
                severity=Severity.ERROR,
                message=(
                    f"wall-clock read {resolved}() on a simulated-time hot "
                    "path; inject a clock (see obs.tracing.Tracer) or pass "
                    "timestamps explicitly"
                ),
            )


@rule(
    "RL002",
    "unseeded-rng",
    "random draws must come from an explicitly seeded generator",
)
def check_unseeded_rng(module: ModuleInfo) -> Iterator[Finding]:
    """Flag unseeded or process-global random number generation."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve(node.func)
        if resolved is None:
            continue
        message = None
        if resolved == "numpy.random.default_rng" and not _has_seed_argument(node):
            message = (
                "numpy.random.default_rng() without an explicit seed; "
                "pass a seed derived from the experiment inputs"
            )
        elif resolved.startswith("numpy.random."):
            tail = resolved.rsplit(".", 1)[1]
            if tail in _NUMPY_GLOBAL_RNG:
                message = (
                    f"process-global numpy RNG numpy.random.{tail}(); use an "
                    "explicitly seeded numpy.random.default_rng(seed) instead"
                )
            elif tail in _NUMPY_BIT_GENERATORS and not _has_seed_argument(node):
                message = (
                    f"numpy.random.{tail}() without an explicit seed"
                )
        elif resolved == "random.Random" and not _has_seed_argument(node):
            message = "random.Random() without an explicit seed"
        elif resolved.startswith("random."):
            tail = resolved.rsplit(".", 1)[1]
            if tail in _STDLIB_GLOBAL_RNG:
                message = (
                    f"process-global stdlib RNG random.{tail}(); use an "
                    "explicitly seeded generator instead"
                )
        if message is not None:
            yield Finding(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id="RL002",
                severity=Severity.ERROR,
                message=message,
            )
