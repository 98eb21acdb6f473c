"""Tests for hierarchical configs and the Algorithm 1 merge."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import JobStoreError
from repro.jobs import ConfigLevel, layer_configs, merge_levels, validate_config
from repro.jobs.configs import config_diff, requires_complex_sync

# JSON-ish config strategy for property tests.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-100, 100), st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
)
configs = st.dictionaries(st.text(min_size=1, max_size=5), json_values, max_size=5)


class TestLayerConfigs:
    def test_top_overrides_bottom_scalar(self):
        assert layer_configs({"a": 1}, {"a": 2}) == {"a": 2}

    def test_disjoint_keys_union(self):
        assert layer_configs({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}

    def test_nested_maps_merge_recursively(self):
        bottom = {"pkg": {"name": "engine", "version": "1.0"}, "tasks": 4}
        top = {"pkg": {"version": "2.0"}}
        merged = layer_configs(bottom, top)
        assert merged == {
            "pkg": {"name": "engine", "version": "2.0"},
            "tasks": 4,
        }

    def test_map_replaces_scalar(self):
        assert layer_configs({"a": 1}, {"a": {"b": 2}}) == {"a": {"b": 2}}

    def test_scalar_replaces_map(self):
        assert layer_configs({"a": {"b": 2}}, {"a": 1}) == {"a": 1}

    def test_lists_replace_wholesale(self):
        assert layer_configs({"a": [1, 2]}, {"a": [3]}) == {"a": [3]}

    def test_inputs_not_mutated(self):
        bottom = {"pkg": {"name": "engine"}}
        top = {"pkg": {"version": "2.0"}}
        layer_configs(bottom, top)
        assert bottom == {"pkg": {"name": "engine"}}
        assert top == {"pkg": {"version": "2.0"}}

    def test_result_does_not_alias_top_layer(self):
        top = {"pkg": {"version": "2.0"}}
        merged = layer_configs({}, top)
        merged["pkg"]["version"] = "3.0"
        assert top["pkg"]["version"] == "2.0"

    def test_empty_layers(self):
        assert layer_configs({}, {"a": 1}) == {"a": 1}
        assert layer_configs({"a": 1}, {}) == {"a": 1}

    @given(configs, configs)
    def test_top_layer_keys_always_win(self, bottom, top):
        merged = layer_configs(bottom, top)
        for key, top_value in top.items():
            if not isinstance(top_value, dict):
                assert merged[key] == top_value

    @given(configs)
    def test_identity_merge(self, config):
        assert layer_configs(config, config) == config

    @given(configs, configs, configs)
    def test_merge_is_associative(self, a, b, c):
        """Layering is associative, so "an arbitrary number of
        configurations" can be folded in any grouping (paper III-A)."""
        assert layer_configs(layer_configs(a, b), c) == layer_configs(
            a, layer_configs(b, c)
        )


class TestMergeLevels:
    def test_precedence_order(self):
        merged = merge_levels({
            ConfigLevel.BASE: {"task_count": 1, "pkg": "base"},
            ConfigLevel.PROVISIONER: {"task_count": 10},
            ConfigLevel.SCALER: {"task_count": 15},
            ConfigLevel.ONCALL: {"task_count": 30},
        })
        assert merged["task_count"] == 30, "oncall always wins"
        assert merged["pkg"] == "base"

    def test_scaler_overrides_provisioner(self):
        merged = merge_levels({
            ConfigLevel.PROVISIONER: {"task_count": 10},
            ConfigLevel.SCALER: {"task_count": 15},
        })
        assert merged["task_count"] == 15

    def test_missing_levels_skipped(self):
        assert merge_levels({ConfigLevel.ONCALL: {"a": 1}}) == {"a": 1}
        assert merge_levels({}) == {}

    def test_empty_level_does_not_mask(self):
        merged = merge_levels({
            ConfigLevel.PROVISIONER: {"task_count": 10},
            ConfigLevel.ONCALL: {},
        })
        assert merged["task_count"] == 10


class TestValidateConfig:
    def test_valid_config_passes(self):
        validate_config({"a": 1, "b": {"c": [1, 2, "x"], "d": None}})

    def test_non_serializable_rejected(self):
        with pytest.raises(JobStoreError):
            validate_config({"a": object()})

    def test_non_string_key_rejected(self):
        with pytest.raises(JobStoreError):
            validate_config({1: "x"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_rejected(self, value):
        """NaN and infinity are not JSON: a store of JSON text holds none."""
        with pytest.raises(JobStoreError):
            validate_config({"perf": {"rate_per_thread_mb": value}})
        with pytest.raises(JobStoreError):
            validate_config({"a": [1.0, {"b": value}]})

    def test_a_nested_non_string_key_names_its_path(self):
        config = {"a": {"b": [0, {"c": {2: "x"}}]}, "d": 1}
        with pytest.raises(JobStoreError) as error:
            validate_config(config)
        assert str(error.value) == "non-string key 2 at config path a.b[1].c"
        with pytest.raises(JobStoreError) as error:
            validate_config({None: 1})
        assert str(error.value) == "non-string key None at config path <root>"


class TestConfigDiff:
    def test_no_difference(self):
        assert config_diff({"a": 1}, {"a": 1}) == {}

    def test_changed_value(self):
        assert config_diff({"a": 1}, {"a": 2}) == {"a": 2}

    def test_new_key(self):
        assert config_diff({}, {"a": 1}) == {"a": 1}

    def test_removed_key_maps_to_none(self):
        assert config_diff({"a": 1}, {}) == {"a": None}

    def test_nested_change_detected(self):
        diff = config_diff({"pkg": {"v": "1"}}, {"pkg": {"v": "2"}})
        assert diff == {"pkg": {"v": "2"}}

    def test_complex_sync_detection(self):
        assert requires_complex_sync({"task_count": 5})
        assert not requires_complex_sync({"package": {"version": "2"}})
        assert not requires_complex_sync({})
