"""Job specifications, and the one reader of the config format.

A :class:`JobSpec` is the typed form of what a user provisions: it compiles
down to the Provisioner-level configuration dict stored in the Job Store.
:meth:`JobView.from_config` is the way back — the only code that reads the
canonical config keys defined here and the only place a reader-side default
is written; every layer takes its fields from a view (``JobStore.view``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.errors import JobStoreError
from repro.types import SLO, JobId, Priority

# ----------------------------------------------------------------------
# Canonical configuration keys
# ----------------------------------------------------------------------
KEY_PACKAGE = "package"              # {"name": str, "version": str}
KEY_TASK_COUNT = "task_count"        # int — job parallelism
KEY_TASK_COUNT_LIMIT = "task_count_limit"  # int — scaler upper bound
KEY_THREADS = "threads_per_task"     # int — k in equation (2)
KEY_RESOURCES = "resources"          # per-task ResourceVector as dict
KEY_INPUT = "input"                  # {"category": str}
KEY_OUTPUT = "output"                # {"category": str, "ratio": float}
KEY_CHECKPOINT_DIR = "checkpoint_dir"
KEY_STATEFUL = "stateful"            # bool
KEY_PRIORITY = "priority"            # int (types.Priority)
KEY_SLO = "slo"                      # {"max_lag_seconds": float, ...}
KEY_STATE_KEY_CARDINALITY = "state_key_cardinality"  # stateful memory model
KEY_PERF = "perf"                    # {"rate_per_thread_mb": float} — true P
KEY_MEMORY_OVERHEAD = "memory_overhead_gb"  # per-task constant buffer extra
KEY_HOT_STANDBY = "hot_standby"      # bool — keep a passive replica warm

#: Byte quantities across the library are expressed in megabytes (MB) and
#: rates in MB/s; the paper reports GB/s at cluster level, which is MB/s
#: times one thousand.

#: Default per-job task-count cap: "32 is the default upper limit for a
#: job's task count for unprivileged Scuba tailers" (paper section VI-B1).
DEFAULT_TASK_COUNT_LIMIT = 32


@dataclass
class JobSpec:
    """A user-facing job definition, convertible to a provisioner config.

    Attributes:
        job_id: unique job name, e.g. ``"scuba/ads_metrics"``.
        input_category: Scribe category the job reads.
        task_count: initial parallelism.
        threads_per_task: worker threads per task (``k`` in equation 2).
        resources_per_task: reservation for each task.
        package_name / package_version: the binary to run.
        stateful: whether tasks keep state beyond checkpoints.
        priority: business priority (capacity manager preemption order).
        slo: processing-lag objective.
        task_count_limit: scaler's upper bound on parallelism.
        state_key_cardinality: for stateful jobs, the number of distinct
            keys held in memory (drives the memory estimator).
    """

    job_id: JobId
    input_category: str
    task_count: int = 1
    threads_per_task: int = 1
    resources_per_task: ResourceVector = field(
        default_factory=lambda: ResourceVector(cpu=0.5, memory_gb=0.5)
    )
    package_name: str = "stream_engine"
    package_version: str = "1.0"
    stateful: bool = False
    priority: Priority = Priority.NORMAL
    slo: SLO = field(default_factory=SLO)
    task_count_limit: int = DEFAULT_TASK_COUNT_LIMIT
    output_category: str = ""
    #: Output bytes per input byte (selectivity/aggregation reduction of
    #: the job's operator chain); only meaningful with an output category.
    output_ratio: float = 1.0
    state_key_cardinality: int = 0
    #: True maximum stable processing rate of one thread, in MB/s — the
    #: ground-truth ``P`` of equation (2). The simulated runtime enforces
    #: it; the scaler only ever sees its own (adjustable) estimate.
    rate_per_thread_mb: float = 2.0
    #: Extra constant per-task memory (GB) modelling message-size-driven
    #: buffering: "memory consumption is proportional to the average
    #: message size" (paper section VI).
    memory_overhead_gb: float = 0.0
    #: Opt into hot-standby replicas: a passive copy of every task stays
    #: warm on a different host for sub-second takeover (at the cost of
    #: the replicas' reservations). Requires the platform's standby
    #: plane to be attached; a plain platform ignores the flag.
    hot_standby: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.rate_per_thread_mb < inf:
            raise JobStoreError(
                f"rate_per_thread_mb must be positive and finite: "
                f"{self.rate_per_thread_mb}"
            )
        if not 0 <= self.output_ratio < inf:
            raise JobStoreError(
                f"output_ratio must be non-negative and finite: {self.output_ratio}"
            )
        if self.output_category and self.output_category == self.input_category:
            raise JobStoreError(
                f"job {self.job_id} would write to its own input category"
            )
        if not self.job_id:
            raise JobStoreError("job_id must be non-empty")
        if self.task_count < 1:
            raise JobStoreError(f"task_count must be >= 1: {self.task_count}")
        if self.threads_per_task < 1:
            raise JobStoreError(
                f"threads_per_task must be >= 1: {self.threads_per_task}"
            )
        if self.task_count_limit < 1:
            raise JobStoreError(
                f"task_count_limit must be >= 1: {self.task_count_limit}"
            )
        if self.stateful and self.state_key_cardinality < 0:
            raise JobStoreError("state_key_cardinality must be non-negative")

    def to_provisioner_config(self) -> Dict[str, Any]:
        """The Provisioner-level configuration dict for this spec."""
        config: Dict[str, Any] = {
            KEY_PACKAGE: {
                "name": self.package_name,
                "version": self.package_version,
            },
            KEY_TASK_COUNT: self.task_count,
            KEY_TASK_COUNT_LIMIT: self.task_count_limit,
            KEY_THREADS: self.threads_per_task,
            KEY_RESOURCES: self.resources_per_task.as_dict(),
            KEY_INPUT: {"category": self.input_category},
            KEY_CHECKPOINT_DIR: f"/checkpoints/{self.job_id}",
            KEY_STATEFUL: self.stateful,
            KEY_PRIORITY: int(self.priority),
            KEY_SLO: {
                "max_lag_seconds": self.slo.max_lag_seconds,
                "recovery_seconds": self.slo.recovery_seconds,
            },
            KEY_PERF: {"rate_per_thread_mb": self.rate_per_thread_mb},
        }
        if self.memory_overhead_gb:
            config[KEY_MEMORY_OVERHEAD] = self.memory_overhead_gb
        if self.output_category:
            config[KEY_OUTPUT] = {
                "category": self.output_category,
                "ratio": self.output_ratio,
            }
        if self.stateful:
            config[KEY_STATE_KEY_CARDINALITY] = self.state_key_cardinality
        if self.hot_standby:
            # Emitted only when set, so configs of jobs that never opt in
            # stay byte-identical to their pre-standby form.
            config[KEY_HOT_STANDBY] = True
        return config


def _frozen(value: Any) -> Any:
    """``value`` with every nested dict / list turned into a tuple."""
    if isinstance(value, dict):
        return tuple((key, _frozen(inner)) for key, inner in value.items())
    if isinstance(value, list):
        return tuple(_frozen(inner) for inner in value)
    return value


def _shared(parts: Dict[Any, Any], value: Any) -> Any:
    """``value``, or the equal object ``parts`` holds already when that one
    is the same to the last digit (the same ``repr``: ``1`` is not ``1.0``,
    nor ``0.0`` ``-0.0``)."""
    held = parts.setdefault(value, value)
    return held if held is value or repr(held) == repr(value) else value


@dataclass(frozen=True)
class JobView:
    """The fields of one merged job configuration, typed and immutable all
    the way down, so the Job Store can hand one object to every reader.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): the
    store keeps one per live job, and a slotted view takes 192 bytes where
    one with a ``__dict__`` takes 249 (CPython 3.11) or 288 (3.9).
    """

    __slots__ = (
        "task_count", "task_count_limit", "threads", "cpu_per_task",
        "memory_per_task_gb", "resources", "stateful",
        "state_key_cardinality", "priority", "slo_lag_seconds",
        "slo_recovery_seconds", "input_category", "output_category",
        "output_ratio", "rate_per_thread_mb", "package_name",
        "package_version", "memory_overhead_gb", "hot_standby",
    )

    task_count: int
    task_count_limit: int
    threads: int
    cpu_per_task: float
    memory_per_task_gb: float
    #: The per-task reservation as ``(dimension, value)`` pairs in the
    #: merged dict's key order: ``dict(resources)`` is what a writer patches.
    resources: Tuple[Tuple[str, Any], ...]
    stateful: bool
    state_key_cardinality: int
    #: The stored int: rejecting an out-of-range value is for the reader
    #: that acts on it, so no type-valid config fails to build a view.
    priority: int
    slo_lag_seconds: float
    slo_recovery_seconds: float
    input_category: str
    output_category: str
    output_ratio: float
    #: The staging-period ("P can be bootstrapped") hint for ``P``, MB/s.
    rate_per_thread_mb: float
    package_name: str
    package_version: str
    memory_overhead_gb: float
    hot_standby: bool

    @classmethod
    def from_config(
        cls, config: Mapping[str, Any], parts: Optional[Dict[Any, Any]] = None,
    ) -> "JobView":
        """Read a merged (or plan-target) configuration dict.

        ``parts`` is a memo of the parts equal configs decode to (the Job
        Store's): through it, equal ``resources`` tuples, each of their
        ``(dimension, value)`` pairs and equal package strings come out as
        one shared object, and the per-task floats are read from the
        shared pairs.
        """
        resources = config.get(KEY_RESOURCES, {})
        frozen = _frozen(resources)
        slo = config.get(KEY_SLO, {})
        output = config.get(KEY_OUTPUT, {})
        package = config.get(KEY_PACKAGE, {})
        package_name = package.get("name", "stream_engine")
        package_version = package.get("version", "1.0")
        if parts is not None:
            if type(resources) is dict:
                frozen = _shared(parts, tuple(_shared(parts, pair) for pair in frozen))
                resources = dict(frozen)
            if type(package_name) is str:
                package_name = _shared(parts, package_name)
            if type(package_version) is str:
                package_version = _shared(parts, package_version)
        return cls(
            task_count=int(config.get(KEY_TASK_COUNT, 1)),
            task_count_limit=int(config.get(KEY_TASK_COUNT_LIMIT, DEFAULT_TASK_COUNT_LIMIT)),
            threads=int(config.get(KEY_THREADS, 1)),
            cpu_per_task=float(resources.get("cpu", 0.0)),
            memory_per_task_gb=float(resources.get("memory_gb", 0.0)),
            resources=frozen,
            stateful=bool(config.get(KEY_STATEFUL, False)),
            state_key_cardinality=int(config.get(KEY_STATE_KEY_CARDINALITY, 0)),
            priority=int(config.get(KEY_PRIORITY, Priority.NORMAL)),
            slo_lag_seconds=float(slo.get("max_lag_seconds", 90.0)),
            slo_recovery_seconds=float(slo.get("recovery_seconds", 3600.0)),
            input_category=config.get(KEY_INPUT, {}).get("category", ""),
            output_category=output.get("category", ""),
            output_ratio=float(output.get("ratio", 1.0)),
            rate_per_thread_mb=float(config.get(KEY_PERF, {}).get("rate_per_thread_mb", 2.0)),
            package_name=package_name,
            package_version=package_version,
            memory_overhead_gb=float(config.get(KEY_MEMORY_OVERHEAD, 0.0)),
            hot_standby=bool(config.get(KEY_HOT_STANDBY, False)),
        )


def base_config() -> Dict[str, Any]:
    """The Base-level configuration shared by all jobs (Table I).

    "The Base Configuration defines a collection of common settings — e.g.,
    package name, version number, and checkpoint directory."
    """
    return {
        KEY_PACKAGE: {"name": "stream_engine", "version": "1.0"},
        KEY_THREADS: 1,
        KEY_TASK_COUNT: 1,
        KEY_TASK_COUNT_LIMIT: DEFAULT_TASK_COUNT_LIMIT,
        KEY_STATEFUL: False,
        KEY_PRIORITY: int(Priority.NORMAL),
        KEY_SLO: {"max_lag_seconds": 90.0, "recovery_seconds": 3600.0},
    }
