"""Exact JSON serialization of run traces.

Round-trips must be *lossless*: the acceptance bar for the engine is
that a result loaded from cache (or shipped back from a worker process)
is indistinguishable from one computed in-process.  Python's ``json``
writes floats with ``repr``, which round-trips every finite double
exactly, so numeric equality is preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.hardware.config import HardwareConfig
from repro.sim.trace import LaunchRecord, RunResult

__all__ = ["run_result_to_dict", "run_result_from_dict"]

#: Bump when the on-disk record layout changes.
SCHEMA_VERSION = 1

_RECORD_FIELDS = (
    "index",
    "kernel_key",
    "time_s",
    "gpu_energy_j",
    "cpu_energy_j",
    "instructions",
    "overhead_time_s",
    "overhead_gpu_energy_j",
    "overhead_cpu_energy_j",
    "horizon",
    "fail_safe",
)


def run_result_to_dict(run: RunResult) -> Dict[str, Any]:
    """Serialize a :class:`RunResult` to a JSON-able dict."""
    return {
        "schema": SCHEMA_VERSION,
        "app_name": run.app_name,
        "policy_name": run.policy_name,
        "base_index": run.base_index,
        "launches": [
            {
                "config": {
                    "cpu": r.config.cpu,
                    "nb": r.config.nb,
                    "gpu": r.config.gpu,
                    "cu": r.config.cu,
                },
                **{name: getattr(r, name) for name in _RECORD_FIELDS},
            }
            for r in run.launches
        ],
    }


def run_result_from_dict(payload: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult`; raises on unknown schema."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported run schema: {payload.get('schema')!r}")
    result = RunResult(
        app_name=payload["app_name"],
        policy_name=payload["policy_name"],
        # Entries written before base_index existed omit it (schema 1
        # stays readable): those are always complete runs, i.e. 0.
        base_index=int(payload.get("base_index", 0)),
    )
    for entry in payload["launches"]:
        config = HardwareConfig(**entry["config"])
        result.append(
            LaunchRecord(config=config, **{k: entry[k] for k in _RECORD_FIELDS})
        )
    return result
