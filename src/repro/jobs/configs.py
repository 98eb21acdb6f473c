"""Hierarchical job configurations and the Algorithm 1 merge.

"Turbine organizes job configurations in a hierarchical structure ...
Multiple configurations can be layered over each other, by merging the JSON
configuration. We then employ a general JSON merging algorithm, that
recursively traverses nested JSON structure while overriding values of the
bottom layer with the top layer of configuration." (paper section III-A).

The four levels and their precedence are given in Table I: Base <
Provisioner < Scaler < Oncall. The oncall layer always wins so human
mitigation is never overwritten by a broken automation service.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, Mapping, Optional

from repro.errors import JobStoreError

#: A job configuration: a JSON-style nested dict.
Config = Dict[str, Any]


class ConfigLevel(enum.IntEnum):
    """Expected-configuration levels, lowest precedence first (Table I)."""

    BASE = 0
    PROVISIONER = 1
    SCALER = 2
    ONCALL = 3

    @classmethod
    def in_precedence_order(cls) -> "list[ConfigLevel]":
        """Levels from lowest to highest precedence."""
        return sorted(cls)


#: Config keys whose change requires a multi-phase ("complex")
#: synchronization rather than a plain copy. Changing parallelism involves
#: stopping tasks and redistributing checkpoints (paper section III-B).
COMPLEX_KEYS = frozenset({"task_count"})


def validate_config(config: Mapping[str, Any]) -> str:
    """Reject configurations that are not JSON-representable; return the
    JSON text of one that is.

    The paper uses Thrift for compile-time type checking and then converts
    to JSON; in Python the equivalent guard is a round-trip check plus a
    string-key requirement on every nesting level. NaN and infinity are
    not JSON, so no stored number is either.
    """
    if isinstance(config, (dict, list)):
        _require_string_keys(config, None)
    try:
        return json.dumps(config, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise JobStoreError(f"config is not JSON-serializable: {exc}") from exc


def _require_string_keys(node: Any, path: Any) -> None:
    # ``node`` is a dict or a list; a scalar has no keys to check.
    is_dict = isinstance(node, dict)
    for key, value in node.items() if is_dict else enumerate(node):
        if is_dict and not isinstance(key, str):
            raise JobStoreError(
                f"non-string key {key!r} at config path {_format_path(path) or '<root>'}"
            )
        if isinstance(value, (dict, list)):
            _require_string_keys(value, (path, key))


def _format_path(path: Any) -> str:
    """``path`` is ``None`` at the root, else ``(parent path, key or index)``:
    built for every nested map or list, formatted only for a failing key."""
    if path is None:
        return ""
    head, step = _format_path(path[0]), path[1]
    return f"{head}[{step}]" if isinstance(step, int) else f"{head}.{step}" if head else step


def layer_configs(bottom_config: Config, top_config: Config) -> Config:
    """Merge two configs, the top layer overriding the bottom (Algorithm 1).

    Nested maps merge recursively; any other value type (including lists)
    replaces the bottom value wholesale. Inputs are never mutated.
    """
    return _layer(bottom_config, _copy_value(top_config))


def _layer(bottom_config: Config, top_config: Config) -> Config:
    """:func:`layer_configs` that takes the top layer's values uncopied."""
    layered_config = dict(bottom_config)
    for key, top_value in top_config.items():
        bottom_value = bottom_config.get(key)
        if isinstance(top_value, dict) and isinstance(bottom_value, dict):
            layered_config[key] = _layer(bottom_value, top_value)
        else:
            layered_config[key] = top_value
    return layered_config


def _copy_value(value: Any) -> Any:
    """Deep-copy JSON values so layers never alias each other's state."""
    if isinstance(value, dict):
        return {key: _copy_value(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [_copy_value(inner) for inner in value]
    return value


def merge_levels(levels: Mapping[ConfigLevel, Optional[Config]]) -> Config:
    """Merge all expected-config levels according to precedence.

    Missing levels are skipped. The result "provides a consistent view of
    expected job states" (paper section III-A). The result may be, or share
    values with, a level: the Job Store passes fresh decodes of its text.
    """
    merged: Config = {}
    for level in ConfigLevel.in_precedence_order():
        config = levels.get(level)
        if config:
            merged = _layer(merged, config) if merged else config
    return merged


def config_diff(running: Config, expected: Config) -> Dict[str, Any]:
    """Top-level keys whose expected value differs from the running value.

    Returns ``{key: expected_value}`` for each difference, including keys
    missing from the running config. Keys present only in the running config
    map to ``None`` (they must be unset).
    """
    diff: Dict[str, Any] = {}
    for key, expected_value in expected.items():
        if running.get(key) != expected_value:
            diff[key] = expected_value
    for key in running:
        if key not in expected:
            diff[key] = None
    return diff


def requires_complex_sync(diff: Mapping[str, Any]) -> bool:
    """True when the diff touches a key that needs multi-phase coordination."""
    return any(key in COMPLEX_KEYS for key in diff)
