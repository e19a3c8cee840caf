"""repro.engine — parallel cached execution layer for the experiments.

Public surface::

    from repro.engine import ExperimentEngine, RunRequest

The engine imports no experiment module: the experiment context it
runs against is passed in, and worker processes rebuild it from the
class the parent pickles into their spec.
"""

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.core import (
    DEFAULT_CACHE_DIR,
    EngineError,
    EngineStats,
    EngineWorkerError,
    ExperimentEngine,
    canonical_requests,
)
from repro.engine.fingerprint import CODE_VERSION
from repro.engine.variants import VARIANTS, RunRequest, produced_keys

__all__ = [
    "CODE_VERSION",
    "DEFAULT_CACHE_DIR",
    "EngineError",
    "EngineStats",
    "EngineWorkerError",
    "ExperimentEngine",
    "ResultCache",
    "CacheStats",
    "RunRequest",
    "VARIANTS",
    "canonical_requests",
    "produced_keys",
]
