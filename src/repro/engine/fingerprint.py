"""Content fingerprinting for the experiment engine's result cache.

A cache entry's key must change whenever anything that could change the
run's outcome changes: the application's kernel specs, the policy
variant and its parameters, the hardware/model configuration (DVFS
tables, APU calibration, overhead model), the predictor, or the engine's
serialization schema.  :func:`describe` reduces an arbitrary object
graph of dataclasses, numpy arrays, and plain containers to a canonical
JSON-able structure; :func:`fingerprint` hashes it.

The description is *structural*: two objects with equal field values
produce the same fingerprint regardless of identity, which is what lets
a worker process, a later session, or CI reuse a cached result.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np

__all__ = ["CODE_VERSION", "Described", "describe", "canonical_json", "fingerprint"]

#: Bump to invalidate every cached result (simulation-affecting code
#: changes that are not visible in the described object graphs).
#: History: ``engine-v2`` keys each run on its request's base payload
#: described once (``engine-v1`` described it twice).
CODE_VERSION = "engine-v2"


class Described:
    """A structure :func:`describe` already returned, kept as it is.

    :func:`describe` returns the wrapped value unchanged, so a large
    described structure that recurs in many payloads is walked once,
    not once per payload.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def describe(obj: Any) -> Any:
    """Reduce an object graph to a canonical JSON-able structure.

    Supported nodes: ``None``/bool/int/float/str, enums, numpy scalars,
    arrays (content-hashed, not embedded) and random generators (by
    bit-generator state), dataclasses, dicts with string-convertible
    keys, sequences, sets, and generic objects via their ``__dict__``
    (tagged with the class's qualified name so renaming a class
    invalidates its entries).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; normalize -0.0 for stability.
        return obj + 0.0
    # Exact containers first: they are most of a payload's nodes (and
    # all of an already-described one), and their branches below give
    # the same result after the checks they skip here.
    kind = type(obj)
    if kind is list or kind is tuple:
        return ["seq", [describe(v) for v in obj]]
    if kind is dict:
        return ["dict", sorted((str(k), describe(v)) for k, v in obj.items())]
    if kind is Described:
        return obj.value
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.value]
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return ["ndarray", str(obj.dtype), list(obj.shape), digest]
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dataclass",
            type(obj).__name__,
            {f.name: describe(getattr(obj, f.name)) for f in fields(obj)},
        ]
    if isinstance(obj, dict):
        return ["dict", sorted((str(k), describe(v)) for k, v in obj.items())]
    if isinstance(obj, (list, tuple)):
        return ["seq", [describe(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(describe(v), sort_keys=True) for v in obj)]
    if hasattr(obj, "__dict__"):
        cls = type(obj)
        state = {k: describe(v) for k, v in sorted(vars(obj).items())}
        return ["obj", f"{cls.__module__}.{cls.__qualname__}", state]
    if isinstance(obj, np.random.Generator):
        # Its bit generator's state fixes every draw it will make (the
        # trees of a Random Forest keep theirs).
        return ["rng", describe(obj.bit_generator.state)]
    raise TypeError(f"cannot fingerprint object of type {type(obj)!r}")


def canonical_json(payload: Any) -> str:
    """Serialize a described payload to canonical JSON."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of an object graph's canonical description."""
    return hashlib.sha256(canonical_json(describe(payload)).encode()).hexdigest()
