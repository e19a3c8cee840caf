"""No shared mutable default anywhere in ``repro``.

A default is evaluated once and shared by every call or instance.  One
caller mutating a shared ``ConfigSpace`` or dict of knobs changes what
every later call sees, and poisons the cache fingerprints of later
runs.  ruff's B006/B008 read only signatures, and dataclasses reject
only unhashable field defaults, so this test imports every module and
checks the default *values* of every dataclass field, function and
method.
"""

import collections
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np

import repro
from repro.engine.cache import ResultCache
from repro.experiments.common import ExperimentContext
from repro.hardware.config import ConfigSpace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sim.simulator import Simulator

#: Types whose instances are mutable state no default may share.
MUTABLE_TYPES = (
    list, dict, set, bytearray, collections.deque, np.ndarray,
    ConfigSpace, Simulator, MetricsRegistry, Tracer, ResultCache,
    ExperimentContext,
)


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _is_generated_init(owner, fn):
    """A dataclass-made ``__init__``: compiled from text, not a file.

    Its defaults are the fields' own (checked directly) or
    ``<factory>`` sentinels, which are not defaults at all.
    """
    return dataclasses.is_dataclass(owner) and fn.__code__.co_filename == "<string>"


def _defaults(module):
    """``(where, value)`` for every default defined in ``module``."""
    pending, seen = [module], set()
    while pending:
        owner = pending.pop()
        if dataclasses.is_dataclass(owner):
            for field in dataclasses.fields(owner):
                yield f"{owner.__qualname__}.{field.name}", field.default
        for obj in vars(owner).values():
            if isinstance(obj, type):
                if obj.__module__ == module.__name__ and obj not in seen:
                    seen.add(obj)
                    pending.append(obj)
                continue
            fn = inspect.unwrap(getattr(obj, "__func__", obj))
            if (
                not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or _is_generated_init(owner, fn)
            ):
                continue
            for value in fn.__defaults__ or ():
                yield fn.__qualname__, value
            for value in (fn.__kwdefaults__ or {}).values():
                yield fn.__qualname__, value


def test_no_default_is_a_shared_mutable_instance():
    problems = [
        f"{module.__name__}: {where} defaults to a {type(value).__name__}"
        for module in _modules()
        for where, value in _defaults(module)
        if isinstance(value, MUTABLE_TYPES)
    ]
    assert problems == []
