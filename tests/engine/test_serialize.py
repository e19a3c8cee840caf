"""Lossless round-trip guarantees of the engine's JSON serializers.

The cache and the worker protocol both rely on ``to_dict -> json ->
from_dict`` reproducing the original object *exactly* — including every
float bit — which is what makes cached and parallel results
indistinguishable from in-process computation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.serialize import run_result_from_dict, run_result_to_dict
from repro.hardware.config import ConfigSpace, HardwareConfig
from repro.sim.trace import LaunchRecord, RunResult

from tests.dataclass_fields import field_names, off_default

pytestmark = pytest.mark.engine

CONFIGS = ConfigSpace().all_configs()

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)

record_st = st.builds(
    lambda i, cfg, t, ge, ce, n, ot, oge, oce, h, fs: dict(
        kernel_key=f"k{i}", config=cfg, time_s=t, gpu_energy_j=ge,
        cpu_energy_j=ce, instructions=n, overhead_time_s=ot,
        overhead_gpu_energy_j=oge, overhead_cpu_energy_j=oce,
        horizon=h, fail_safe=fs,
    ),
    st.integers(0, 3),
    st.sampled_from(CONFIGS),
    positive, positive, positive, positive,
    finite, finite, finite,
    st.integers(0, 32),
    st.booleans(),
)


def build_run(records, base_index=0):
    run = RunResult(app_name="app", policy_name="policy", base_index=base_index)
    for index, fields in enumerate(records, start=base_index):
        run.append(LaunchRecord(index=index, **fields))
    return run


def roundtrip(payload):
    """Push a payload through real JSON text, as the cache does."""
    return json.loads(json.dumps(payload))


class TestRunResultRoundTrip:
    @given(st.lists(record_st, max_size=6), st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_exact(self, records, base_index):
        run = build_run(records, base_index)
        restored = run_result_from_dict(roundtrip(run_result_to_dict(run)))
        assert restored == run  # every field, launches included

    def test_every_field_is_serialized(self):
        """Each field, set off its default, reaches the JSON and returns."""
        record = off_default(
            LaunchRecord,
            index=5,
            kernel_key="k#2",
            config=HardwareConfig(cpu="P3", nb="NB1", gpu="DPM2", cu=4),
            time_s=1.5e-3,
            gpu_energy_j=0.25,
            cpu_energy_j=0.125,
            instructions=3.0e9,
            overhead_time_s=2.0e-5,
            overhead_gpu_energy_j=1.0e-6,
            overhead_cpu_energy_j=3.0e-6,
            horizon=7,
            fail_safe=True,
        )
        run = off_default(
            RunResult,
            app_name="app",
            policy_name="mpc",
            launches=[record],
            base_index=5,
        )
        payload = roundtrip(run_result_to_dict(run))
        assert set(payload) == field_names(RunResult) | {"schema"}
        assert [set(entry) for entry in payload["launches"]] == [
            field_names(LaunchRecord)
        ]
        assert run_result_from_dict(payload) == run

    def test_schema_mismatch_raises(self):
        payload = run_result_to_dict(build_run([]))
        payload["schema"] = 999
        with pytest.raises(ValueError):
            run_result_from_dict(payload)
