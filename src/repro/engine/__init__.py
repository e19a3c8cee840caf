"""repro.engine — parallel cached execution layer for the experiments.

Public surface::

    from repro.engine import ExperimentEngine, RunRequest

Submodules are imported lazily (PEP 562) so that low-level modules —
notably :mod:`repro.experiments.common`, which the engine's serializer
imports — can themselves import :mod:`repro.engine.variants` without
creating an import cycle through this package initializer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    "requests_for",
]

_EXPORTS = {
    "CODE_VERSION": ("repro.engine.fingerprint", "CODE_VERSION"),
    "DEFAULT_CACHE_DIR": ("repro.engine.core", "DEFAULT_CACHE_DIR"),
    "EngineError": ("repro.engine.core", "EngineError"),
    "EngineStats": ("repro.engine.core", "EngineStats"),
    "EngineWorkerError": ("repro.engine.core", "EngineWorkerError"),
    "ExperimentEngine": ("repro.engine.core", "ExperimentEngine"),
    "ResultCache": ("repro.engine.cache", "ResultCache"),
    "CacheStats": ("repro.engine.cache", "CacheStats"),
    "RunRequest": ("repro.engine.variants", "RunRequest"),
    "VARIANTS": ("repro.engine.variants", "VARIANTS"),
    "canonical_requests": ("repro.engine.core", "canonical_requests"),
    "produced_keys": ("repro.engine.variants", "produced_keys"),
    "requests_for": ("repro.engine.matrix", "requests_for"),
}

if TYPE_CHECKING:  # pragma: no cover - typing only
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
    from repro.engine.matrix import requests_for
    from repro.engine.variants import VARIANTS, RunRequest, produced_keys


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.engine' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(__all__)
