"""Typed validation of job configurations.

"The configuration management utilizes Thrift to enforce compile-time type
checking. This is then converted to a JSON representation" (paper section
III-A). The Python equivalent: a declarative type schema for the canonical
keys, enforced on every Job Service write. Type errors are caught at write
time, exactly like Thrift would; *semantic* validity (e.g. a task count
that is positive) remains the State Syncer's concern, since an arbitrary
combination of layered configs is only meaningful once merged. The one
exception is a floor no merge can repair: a level whose
``threads_per_task`` wins the merge sets the thread count of every task,
and a task runs at least one thread.

Unknown keys are deliberately allowed: "a new component can be added to
the system by introducing a new configuration at the right level of
precedence without affecting the existing components" — a closed schema
would break exactly that extensibility.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.errors import JobStoreError

#: Expected types of the canonical top-level keys. A value of ``dict``
#: with a nested mapping constrains the sub-keys too (again leaving
#: unknown sub-keys open).
_SCHEMA: Dict[str, Any] = {
    "package": {"name": str, "version": str},
    "task_count": int,
    "task_count_limit": int,
    "threads_per_task": int,
    "resources": {
        "cpu": (int, float),
        "memory_gb": (int, float),
        "disk_gb": (int, float),
        "network_mbps": (int, float),
    },
    "input": {"category": str},
    "output": {"category": str, "ratio": (int, float)},
    "checkpoint_dir": str,
    "stateful": bool,
    "priority": int,
    "slo": {
        "max_lag_seconds": (int, float),
        "recovery_seconds": (int, float),
    },
    "state_key_cardinality": int,
    "memory_overhead_gb": (int, float),
    "perf": {"rate_per_thread_mb": (int, float)},
}


def validate_typed(config: Mapping[str, Any]) -> None:
    """Raise :class:`JobStoreError` when a known key has the wrong type,
    or ``threads_per_task`` is below 1."""
    _check_node(config, _SCHEMA, "")


def _check_node(
    node: Mapping[str, Any], schema: Mapping[str, Any], path: str
) -> None:
    for key, value in node.items():
        expected = schema.get(key)
        if expected is None:
            continue  # unknown keys are open for extension
        key_path = f"{path}.{key}" if path else key
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise JobStoreError(
                    f"config key {key_path!r} must be a mapping, "
                    f"got {type(value).__name__}"
                )
            _check_node(value, expected, key_path)
            continue
        if isinstance(value, bool) and expected is int:
            # bool is a subclass of int in Python; Thrift would not
            # accept a bool where an i32 is declared.
            raise JobStoreError(
                f"config key {key_path!r} must be int, got bool"
            )
        if not isinstance(value, expected):
            expected_names = (
                expected.__name__
                if isinstance(expected, type)
                else "/".join(t.__name__ for t in expected)
            )
            raise JobStoreError(
                f"config key {key_path!r} must be {expected_names}, "
                f"got {type(value).__name__}"
            )
        if key_path == "threads_per_task" and value < 1:
            raise JobStoreError(
                f"config key {key_path!r} must be >= 1, got {value}"
            )
