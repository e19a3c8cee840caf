"""The columnar ground truth against the per-configuration reference.

Every launch, counter synthesis and training row reads the columnar
timing, power and thermal model; :mod:`.reference_ground_truth` writes
the same model one configuration at a time.  They must agree with
``==`` on every field, for every Table-IV kernel at every configuration
the part can run.  A whole-table evaluation (what the oracle predictor,
the TO menu and training read) is checked everywhere; one-launch reads
(:meth:`APUModel.execute`, :meth:`APUModel.kernel_power`) evaluate one
row of the same model and are checked at every seventh configuration,
a different seventh per kernel, so every configuration is read both
ways.
"""

import pytest

from repro.hardware.apu import PART_TABLE, APUModel
from repro.workloads.suites import all_benchmarks

from .reference_ground_truth import execute, manager_power

pytestmark = pytest.mark.traces

#: One-launch reads check every ``LAUNCH_STRIDE``-th configuration.
LAUNCH_STRIDE = 7


def test_ground_truth_equals_the_per_configuration_reference():
    apu = APUModel()
    specs = sorted(
        {spec for app in all_benchmarks() for spec in app.unique_kernels},
        key=lambda spec: spec.key,
    )
    assert len(specs) * len(PART_TABLE) == 65_520
    mismatches = []
    launched = set()
    for n, spec in enumerate(specs):
        timing = apu.timing.kernel_timing_matrix(spec, PART_TABLE)
        power = apu.power.kernel_power_matrix(PART_TABLE, timing, spec.activity_factor)
        measured = apu.execute_matrix(spec, PART_TABLE)
        for i, config in enumerate(PART_TABLE.configs):
            measurement, breakdown = execute(apu, spec, config)
            if power.breakdown(i) != breakdown or measured.measurement(i) != measurement:
                mismatches.append((spec.key, str(config), "table"))
            if i % LAUNCH_STRIDE == n % LAUNCH_STRIDE:
                launched.add(i)
                if (
                    apu.kernel_power(spec, config) != breakdown
                    or apu.execute(spec, config) != measurement
                ):
                    mismatches.append((spec.key, str(config), "launch"))
    assert mismatches == []
    assert len(launched) == len(PART_TABLE)
    for config in PART_TABLE.configs:
        reference = manager_power(apu.power, config)
        assert apu.power.manager_power(config) == reference
        manager = apu.manager_measurement(0.004, config)
        assert (manager.gpu_power_w, manager.cpu_power_w) == (reference.gpu_w, reference.cpu_w)
