"""Unit tests for the columnar configuration table."""

import pickle

import numpy as np
import pytest

from repro.hardware.config import ConfigSpace, HardwareConfig
from repro.hardware.table import ConfigTable
from repro.ml.predictors import CpuPowerModel

SPACE = ConfigSpace()


@pytest.fixture(scope="module")
def table():
    return ConfigTable(SPACE)


class TestColumns:
    def test_columns_mirror_config_attributes(self, table):
        i = len(table) // 3
        config = table.config_at(i)
        assert table.cpu_freq_ghz[i] == config.cpu_state.freq_ghz
        assert table.nb_freq_ghz[i] == config.nb_state.freq_ghz
        assert table.gpu_freq_ghz[i] == config.gpu_state.freq_ghz
        assert table.rail_voltage[i] == config.rail_voltage
        assert table.cu_count[i] == float(config.cu)

    def test_feature_block_shape(self, table):
        assert table.feature_block.shape == (len(SPACE), 7)

    def test_cpu_power_column_matches_scalar_model(self, table):
        model = CpuPowerModel(coef_w_per_v2ghz=3.1, static_w=0.4)
        column = table.cpu_power_column(model)
        for i in (0, 17, len(table) - 1):
            assert column[i] == model.predict(table.config_at(i))

    def test_cpu_power_column_memo_is_per_model_coefficients(self, table):
        a = table.cpu_power_column(CpuPowerModel(2.0, 0.5))
        b = table.cpu_power_column(CpuPowerModel(4.0, 0.5))
        c = table.cpu_power_column(CpuPowerModel(2.0, 1.5))  # static_w only
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestAdHocTables:
    def test_from_configs_preserves_order(self):
        configs = SPACE.all_configs()[10:14]
        sub = ConfigTable.from_configs(configs)
        assert sub.configs == tuple(configs)
        assert len(sub) == 4
        assert sub.feature_block.shape == (4, 7)

    def test_from_configs_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigTable.from_configs([])

    def test_from_configs_has_no_lattice_structure(self):
        sub = ConfigTable.from_configs(SPACE.all_configs()[:2])
        with pytest.raises(ValueError):
            sub.index_of_config(sub.config_at(0))
        with pytest.raises(ValueError):
            sub.moves()

    def test_index_of_config_rejects_off_lattice(self):
        narrow = ConfigTable(
            ConfigSpace(
                cpu_states=("P7", "P1"), nb_states=("NB3", "NB0"),
                gpu_states=("DPM0", "DPM4"), cu_counts=(2, 8),
            )
        )
        off = HardwareConfig(cpu="P3", nb="NB0", gpu="DPM0", cu=2)
        with pytest.raises(ValueError):
            narrow.index_of_config(off)


class TestStability:
    def test_pickle_roundtrip(self, table):
        clone = pickle.loads(pickle.dumps(table))
        assert clone.configs == table.configs
        assert np.array_equal(clone.feature_block, table.feature_block)
        assert clone.index_of_config(clone.config_at(7)) == 7

    def test_cpu_power_column_never_touches_instance_state(self, table):
        before = set(vars(table))
        table.cpu_power_column(CpuPowerModel(2.9, 0.3))
        assert set(vars(table)) == before

    def test_pickle_payload_unchanged_by_power_column_use(self):
        fresh = ConfigTable(SPACE)
        baseline = pickle.dumps(fresh)
        fresh.cpu_power_column(CpuPowerModel(2.9, 0.3))
        assert pickle.dumps(fresh) == baseline
