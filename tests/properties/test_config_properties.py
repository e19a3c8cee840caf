"""Property-based tests for the configuration space."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.config import KNOBS, ConfigSpace, HardwareConfig

SPACE = ConfigSpace()
CONFIGS = SPACE.all_configs()

config_st = st.sampled_from(CONFIGS)
knob_st = st.sampled_from(KNOBS)
direction_st = st.sampled_from([-1, 1])


@given(config_st, knob_st, direction_st)
def test_step_stays_in_space(config, knob, direction):
    stepped = SPACE.step(config, knob, direction)
    assert stepped is None or stepped in SPACE


@given(config_st, knob_st, direction_st)
def test_step_is_reversible(config, knob, direction):
    stepped = SPACE.step(config, knob, direction)
    if stepped is not None:
        back = SPACE.step(stepped, knob, -direction)
        assert back == config


@given(config_st, knob_st)
def test_step_changes_only_one_knob(config, knob):
    stepped = SPACE.step(config, knob, +1)
    if stepped is None:
        return
    for other in KNOBS:
        if other == knob:
            assert stepped.knob(other) != config.knob(other)
        else:
            assert stepped.knob(other) == config.knob(other)


@given(config_st)
def test_clamp_is_identity_on_members(config):
    assert SPACE.clamp(config) == config


@given(config_st)
def test_replace_roundtrip(config):
    rebuilt = HardwareConfig(
        cpu=config.cpu, nb=config.nb, gpu=config.gpu, cu=config.cu
    )
    assert rebuilt == config


@given(config_st)
def test_rail_voltage_at_least_gpu_voltage(config):
    assert config.rail_voltage >= config.gpu_state.voltage


@settings(max_examples=30)
@given(st.sampled_from([c for c in CONFIGS if c.gpu != "DPM4"]))
def test_clamp_snaps_into_reduced_space(config):
    reduced = ConfigSpace(gpu_states=("DPM4",))
    clamped = reduced.clamp(config)
    assert clamped in reduced
    # Non-GPU knobs are untouched.
    assert clamped.cpu == config.cpu and clamped.cu == config.cu
