"""The Turbine platform: wiring of all three layers over the substrate.

This is the top-level façade a user of the library instantiates. It owns:

* the discrete-event engine, the Tupperware cluster, the Scribe bus, and
  the metric store (the substrate);
* Job Management: Job Store, Job Service, State Syncer;
* Task Management: Task Service, Shard Manager, per-container Task
  Managers, job stats collection;
* Resource Management: the Auto Scaler and Capacity Manager (optional —
  the Fig. 8 baseline runs without them).

Typical use::

    turbine = Turbine.create(num_hosts=10, seed=42)
    turbine.provision(JobSpec(job_id="scuba/ads", input_category="ads",
                              task_count=4))
    turbine.scribe.ensure_category("ads", 32)
    turbine.run_for(hours=1)
    print(turbine.job_lag("scuba/ads"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.failures import FailureInjector
from repro.cluster.resources import ResourceVector
from repro.cluster.tupperware import TupperwareCluster
from repro.jobs.model import JobSpec
from repro.jobs.service import JobService
from repro.jobs.store import JobStore
from repro.jobs.syncer import StateSyncer
from repro.metrics.store import MetricStore
from repro.obs.telemetry import EngineInstrumentation, Telemetry
from repro.obs.trace import Tracer
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine
from repro.tasks.actuator import TurbineActuator
from repro.tasks.manager import (
    HEARTBEAT_INTERVAL,
    TaskManager,
    heartbeat_managers,
    manager_edges,
    step_managers,
)
from repro.tasks.service import TaskService
from repro.tasks.shard import DEFAULT_NUM_SHARDS
from repro.tasks.shard_manager import REBALANCE_INTERVAL, ShardManager
from repro.tasks.stats import COLLECT_INTERVAL, JobStatsCollector
from repro.types import ContainerId, JobId, Seconds, TaskId, TaskState

#: Data-plane step period (the ``data-plane-step`` timer). Coarser steps
#: trade fidelity for speed in long-horizon benchmarks.
STEP_INTERVAL: Seconds = 10.0

#: Attribute names of the startable subsystems, in start order. Timers
#: due at the same timestamp fire in the order they were armed, so the
#: exports see this order — never the order ``attach_*`` was called in.
_START_ORDER = (
    "shard_manager", "syncer", "stats", "scaler", "capacity_manager",
    "health", "slo", "replication", "checkpoint_plane", "standby",
    "slow_nodes",
)

#: Attribute names of the keepers of per-job *control* state, each with
#: ``forget_job(job_id)`` and ``held_jobs()``, in the order
#: ``TurbineActuator.forget_job`` calls them. Records (``actions``,
#: ``rounds``, ``alerts``, ``events``, SLO samples) are not theirs to drop.
_JOB_HOLDERS = (
    "stats", "syncer", "scaler", "capacity_manager", "checkpoint_plane",
    "slo", "tracer",
)


def _given(**kwargs):
    """The keyword arguments a caller actually passed (the non-None
    ones), so constructor defaults are stated once, by the constructor."""
    return {key: value for key, value in kwargs.items() if value is not None}


@dataclass
class PlatformConfig:
    """Tunable intervals and sizes for a Turbine deployment.

    Defaults match the paper's production values; long-horizon benchmarks
    scale them up (coarser data-plane steps) to keep runs fast.
    """

    num_shards: int = DEFAULT_NUM_SHARDS
    containers_per_host: int = 4
    container_capacity: Optional[ResourceVector] = None
    heartbeat_interval: Seconds = HEARTBEAT_INTERVAL
    rebalance_interval: Seconds = REBALANCE_INTERVAL
    step_interval: Seconds = STEP_INTERVAL
    stats_interval: Seconds = COLLECT_INTERVAL
    #: Data-plane resiliency planes, switched on here only and built by
    #: ``Turbine.start()``: Scribe-backed offset snapshots that roll
    #: regressed cursors forward; passive replicas for jobs provisioned
    #: with ``hot_standby=True``; the gray-failure detector that drains
    #: persistently slow containers. All off by default — with every
    #: toggle off the platform is byte-identical to one built before
    #: these features existed; the transparency suite asserts it.
    durable_checkpoints: bool = False
    hot_standby: bool = False
    slow_node_detection: bool = False


class Turbine:
    """A fully wired Turbine deployment over a simulated cluster."""

    def __init__(
        self,
        engine: Engine,
        cluster: TupperwareCluster,
        config: Optional[PlatformConfig] = None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.config = config or PlatformConfig()
        self.scribe = ScribeBus()
        self.metrics = MetricStore()
        self.failures = FailureInjector(engine, cluster)

        # --- Observability (off by default; see enable_tracing) -------
        self.tracer = Tracer(clock=lambda: engine.now)
        self.telemetry = Telemetry(enabled=False)
        self.metrics.set_telemetry(self.telemetry)

        # --- Job Management -------------------------------------------
        self.job_store = JobStore()
        self.job_service = JobService(self.job_store, tracer=self.tracer)

        # --- Task Management ------------------------------------------
        self.task_service = TaskService(engine, self.config.num_shards)
        self.shard_manager = ShardManager(
            engine,
            num_shards=self.config.num_shards,
            rebalance_interval=self.config.rebalance_interval,
            tracer=self.tracer,
            telemetry=self.telemetry,
        )
        #: The task-location index: ``job -> task id -> containers``
        #: hosting the id as a task or a replica. Written only by the
        #: Task Managers (where ``tasks`` / ``standbys`` are written);
        #: read by the actuator and the standby plane, so neither walks
        #: the fleet to find one task.
        self.task_hosts: Dict[JobId, Dict[TaskId, Tuple[ContainerId, ...]]] = {}
        self.actuator = TurbineActuator(
            self.task_service, self.shard_manager, self.scribe,
            self.task_hosts, self._job_holders, tracer=self.tracer,
        )
        self.syncer = StateSyncer(
            self.job_store, self.actuator, engine=engine,
            tracer=self.tracer, telemetry=self.telemetry,
        )
        self.task_managers: Dict[str, TaskManager] = {}
        #: The two counted edges every Task Manager calls through, one
        #: pair for the whole fleet.
        self._manager_edges = manager_edges(self.telemetry)
        self.stats = JobStatsCollector(
            engine, self.task_service, self.shard_manager, self.scribe,
            self.metrics, interval=self.config.stats_interval,
        )
        #: Filled in by :meth:`attach_scaler` / :meth:`attach_capacity_manager`
        #: / :meth:`attach_health_reporter` / :meth:`attach_chaos` /
        #: :meth:`attach_slo` / :meth:`attach_replication`.
        self.scaler = None
        self.capacity_manager = None
        self.health = None
        self.chaos = None
        self.sli = None
        self.slo = None
        self.replication = None
        #: Data-plane resiliency planes, built by :meth:`start` when
        #: their ``PlatformConfig`` toggle is on.
        self.checkpoint_plane = None
        self.standby = None
        self.slow_nodes = None
        self._started = False
        cluster.on_host_failure.append(self._on_host_failure)

    # ------------------------------------------------------------------
    # Resource Management attachment
    # ------------------------------------------------------------------
    def _attach(self, name: str, build):
        """Install ``build()`` as ``self.<name>``, the one wiring path.

        A subsystem is attached once: a second attach of ``name`` raises
        before ``build`` runs, since some constructors wire themselves
        into the platform (the replication group takes the Job Store's
        command sink). One attached after ``start()`` starts right away
        (Fig. 10's rollout attaches the scaler late).
        """
        if getattr(self, name) is not None:
            raise RuntimeError(f"{name} is already attached")
        subsystem = build()
        setattr(self, name, subsystem)
        if self._started and name in _START_ORDER:
            subsystem.start()
        return subsystem

    def _job_holders(self) -> list:
        """The attached subsystems named in :data:`_JOB_HOLDERS`."""
        holders = (getattr(self, name) for name in _JOB_HOLDERS)
        return [holder for holder in holders if holder is not None]

    def attach_scaler(self, scaler_config=None):
        """Attach the proactive Auto Scaler (optional third layer).

        Imported lazily so deployments without auto scaling (the Fig. 8
        baseline cluster) never construct scaler state.
        """
        from repro.scaler.proactive import AutoScaler, AutoScalerConfig

        if scaler_config is None:
            scaler_config = AutoScalerConfig(
                **_given(container_capacity=self.config.container_capacity)
            )
        return self._attach("scaler", lambda: AutoScaler(
            self.engine, self.job_service, self.metrics, self.scribe,
            config=scaler_config, tracer=self.tracer,
        ))

    def attach_health_reporter(self, interval=None):
        """Attach the operations health reporter (paper section VII)."""
        from repro.ops.health import HealthReporter

        return self._attach("health", lambda: HealthReporter(
            self.engine, self.job_service, self.task_service,
            self.shard_manager, self.metrics, sli=self._sli_evaluator(),
            **_given(interval=interval),
        ))

    def _sli_evaluator(self):
        """The one shared SLI evaluator (health + SLO plane agree)."""
        if self.sli is None:
            from repro.obs.sli import SliEvaluator

            self.sli = SliEvaluator(self.job_service, self.metrics)
        return self.sli

    def attach_slo(self, specs=None):
        """Attach the SLO plane: SLI judgements, error budgets, alerts.

        Evaluation is passive (reads metrics, writes its own private
        bookkeeping store) so attaching it never perturbs the
        simulation; like the other optional subsystems it is imported
        lazily and started with the platform.
        """
        from repro.obs.slo import SloTracker

        return self._attach("slo", lambda: SloTracker(
            self.engine, self._sli_evaluator(),
            specs=specs, telemetry=self.telemetry,
        ))

    def attach_chaos(self):
        """Attach the deterministic control-plane chaos engine.

        Imported lazily like the other optional subsystems; scenarios are
        scheduled with :meth:`repro.chaos.ChaosEngine.schedule`.
        """
        from repro.chaos import ChaosEngine

        return self._attach("chaos", lambda: ChaosEngine(self))

    def attach_replication(self, replicas=None):
        """Attach Job Store state-machine replication over Scribe.

        Mutations of the Job Store endpoint are serialized onto a
        dedicated Scribe command log and applied in log order by shadow
        replicas; a sim-time lease elects the leader and a follower is
        promoted in place on leader loss. Fault-free behavior is
        byte-identical to an unreplicated platform (the golden
        transparency suite in tests/integration proves it).
        """
        from repro.replication import ReplicationGroup

        return self._attach("replication", lambda: ReplicationGroup(
            self.engine, self.job_store, self.scribe,
            telemetry=self.telemetry, **_given(replicas=replicas),
        ))

    def attach_capacity_manager(self):
        """Attach the Capacity Manager (requires an attached scaler)."""
        from repro.scaler.capacity import CapacityManager

        if self.scaler is None:
            raise RuntimeError("attach_scaler must be called first")
        return self._attach("capacity_manager", lambda: CapacityManager(
            self.engine, self.cluster, self.job_service, self.scaler,
            self.actuator,
        ))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        num_hosts: int,
        seed: int = 0,
        config: Optional[PlatformConfig] = None,
    ) -> "Turbine":
        """Build a deployment with ``num_hosts`` identical hosts."""
        engine = Engine(seed=seed)
        cluster = TupperwareCluster()
        for index in range(num_hosts):
            cluster.add_host(f"host-{index}")
        return cls(engine, cluster, config)

    def start(self) -> None:
        """Allocate containers, start every service, place all shards."""
        if self._started:
            return
        self._build_resiliency_planes()
        self._started = True
        containers = self.cluster.allocate_fleet(
            self.config.containers_per_host, self.config.container_capacity
        )
        for container in containers:
            self._spawn_manager(container)
        # Armed before every control-plane timer so that at equal
        # timestamps the heartbeats land before the Shard Manager's
        # fail-over check reads them.
        self.engine.every(
            self.config.heartbeat_interval,
            self._heartbeat_fleet,
            name="container-heartbeat",
        )
        self.shard_manager.initial_placement()
        for name in _START_ORDER:
            subsystem = getattr(self, name)
            if subsystem is not None:
                subsystem.start()
        # Armed last so that at equal timestamps every control-plane
        # timer fires before the data plane steps.
        self.engine.every(
            self.config.step_interval,
            self._step_data_plane,
            name="data-plane-step",
        )

    def _build_resiliency_planes(self) -> None:
        """Build the planes the config switches on, before the first
        manager spawns, so :meth:`_spawn_manager` wires every manager to
        them."""
        if self.config.durable_checkpoints:
            from repro.tasks.checkpoint import CheckpointPlane

            self._attach("checkpoint_plane", lambda: CheckpointPlane(
                self.engine, self.scribe, self.task_service,
                telemetry=self.telemetry,
            ))
        if self.config.hot_standby:
            from repro.tasks.standby import StandbyPlane

            self._attach("standby", lambda: StandbyPlane(
                self.engine, self, telemetry=self.telemetry,
            ))
        if self.config.slow_node_detection:
            from repro.tasks.slow_node import SlowNodeDetector

            self._attach("slow_nodes", lambda: SlowNodeDetector(
                self.engine, self, telemetry=self.telemetry,
            ))

    def _heartbeat_fleet(self) -> None:
        """The one heartbeat path: every manager, in spawn order."""
        heartbeat_managers(self.shard_manager, self.task_managers)

    def _step_data_plane(self) -> None:
        """The one stepping path: every manager, in spawn order."""
        step_managers(self.scribe, self.task_managers.values(), self.engine.now)

    def _spawn_manager(self, container) -> TaskManager:
        manager = TaskManager(
            self.engine,
            container,
            self.task_service,
            self.shard_manager,
            self.scribe,
            metrics=self.metrics,
            heartbeat_interval=self.config.heartbeat_interval,
            tracer=self.tracer,
            telemetry=self.telemetry,
            task_hosts=self.task_hosts,
            edges=self._manager_edges,
        )
        manager.standby_plane = self.standby
        manager.checkpoint_plane = self.checkpoint_plane
        self.task_managers[container.container_id] = manager
        self.cluster.fleet_version.bump()
        manager.start()
        return manager

    # ------------------------------------------------------------------
    # Host lifecycle
    # ------------------------------------------------------------------
    def _on_host_failure(self, host_id: str) -> None:
        """Drop Task Manager objects whose containers died with the host.

        The Shard Manager discovers the loss through missing heartbeats
        (it is not told directly — that is the point of the protocol).
        Nothing to bump: the containers' kills bumped the fleet counter,
        and to the standby plane a dead manager reads as a missing one.
        """
        dead = [
            container_id
            for container_id, manager in self.task_managers.items()
            if not manager.alive
        ]
        for container_id in dead:
            self.task_managers.pop(container_id).shutdown()

    def add_host(self, host_id: str) -> None:
        """Hot-add a host: allocate containers and managers on it.

        "The procedure to add or remove hosts is fully automated"
        (paper section V-F).
        """
        self.cluster.add_host(host_id)
        self._populate_host(host_id)

    def recover_host(self, host_id: str) -> None:
        """Bring a failed host back and repopulate its containers."""
        self.cluster.recover_host(host_id)
        self._populate_host(host_id)

    def _populate_host(self, host_id: str) -> None:
        """Allocate the host's containers, one Task Manager each."""
        for __ in range(self.config.containers_per_host):
            container = self.cluster.allocate_container(
                host_id, self.config.container_capacity
            )
            self._spawn_manager(container)

    # ------------------------------------------------------------------
    # Job operations
    # ------------------------------------------------------------------
    def provision(self, spec: JobSpec, partitions: Optional[int] = None) -> None:
        """Provision a job and make sure its input category exists."""
        if partitions is None:
            partitions = max(spec.task_count_limit, spec.task_count)
        self.scribe.ensure_category(spec.input_category, partitions)
        self.job_service.provision(spec)

    def deprovision(self, job_id: JobId) -> None:
        """Tear a job down completely, now. The Job Store delete is the
        commit: an outage or an unknown id raises with nothing touched,
        and past it the syncer's sweep would finish what this call began.

        The input category is left in place — other jobs may read it, and
        Scribe data is persistent by design.
        """
        self.job_service.deprovision(job_id)
        self.actuator.forget_job(job_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_for(
        self, seconds: float = 0.0, minutes: float = 0.0, hours: float = 0.0,
        days: float = 0.0,
    ) -> None:
        """Advance the simulation by the given amount of time."""
        duration = seconds + minutes * 60 + hours * 3600 + days * 86400
        self.engine.run_for(duration)

    @property
    def now(self) -> Seconds:
        return self.engine.now

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_tracing(self) -> Tracer:
        """Turn on causal decision traces across every layer.

        The tracer is threaded through all services at construction, so
        this only flips the enabled bit — recording starts immediately and
        the simulation itself is unaffected (tracing draws no randomness
        and schedules no events).
        """
        self.tracer.enable()
        return self.tracer

    def enable_instrumentation(self) -> Telemetry:
        """Turn on control-plane telemetry, including the per-event
        engine hook (timer firing stats and callback wall-clock cost)."""
        self.telemetry.enabled = True
        if self.engine.instrumentation is None:
            self.engine.instrumentation = EngineInstrumentation(self.telemetry)
        return self.telemetry

    def running_tasks(self) -> List[str]:
        """Every task currently running, across all live managers."""
        return sorted(
            task_id
            for manager in self.task_managers.values()
            if manager.alive
            for task_id in manager.running_task_ids()
        )

    def running_task_count(self) -> int:
        return sum(
            len(manager.running_task_ids())
            for manager in self.task_managers.values()
            if manager.alive
        )

    def tasks_of_job(self, job_id: JobId) -> List[str]:
        """Running task ids of one job (promoted standbys included)."""
        running = {
            task.spec.task_id
            for manager in self.task_managers.values()
            if manager.alive
            for task in list(manager.tasks.values())
            + list(manager.standbys.values())
            if task.spec.job_id == job_id and task.state == TaskState.RUNNING
        }
        return sorted(running)

    def job_lag_mb(self, job_id: JobId) -> float:
        """Unprocessed bytes (MB) in the job's input category.

        Reads the category from the job's expected configuration (not its
        task specs) so a stopped job still reports its growing backlog.
        """
        category_name = self.job_service.view(job_id).input_category
        if not category_name or category_name not in self.scribe.categories:
            return 0.0
        return self.scribe.backlog_mb(job_id, category_name)

    def host_utilization(self) -> Dict[str, Dict[str, float]]:
        """Per-host CPU and memory utilization from live task usage."""
        usage: Dict[str, Dict[str, float]] = {}
        for manager in self.task_managers.values():
            if not manager.alive or manager.container.host_id is None:
                continue
            host_id = manager.container.host_id
            host = self.cluster.hosts.get(host_id)
            if host is None or not host.alive:
                continue
            entry = usage.setdefault(
                host_id, {"cpu": 0.0, "memory_gb": 0.0, "tasks": 0.0}
            )
            # Primaries, then replicas: a promoted standby is RUNNING.
            for task in (*manager.tasks.values(), *manager.standbys.values()):
                if task.state != TaskState.RUNNING:
                    continue
                entry["cpu"] += task.last_cpu_used
                entry["memory_gb"] += task.memory_needed_gb()
                entry["tasks"] += 1
        for host_id, entry in usage.items():
            capacity = self.cluster.hosts[host_id].capacity
            entry["cpu_util"] = entry["cpu"] / capacity.cpu if capacity.cpu else 0.0
            entry["mem_util"] = (
                entry["memory_gb"] / capacity.memory_gb
                if capacity.memory_gb else 0.0
            )
        return usage

    def __repr__(self) -> str:
        return (
            f"Turbine(hosts={len(self.cluster.hosts)}, "
            f"jobs={len(self.job_store.job_ids())}, "
            f"tasks={self.running_task_count()})"
        )
