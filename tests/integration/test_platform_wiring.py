"""The platform's one wiring path: ``_attach`` + ``_START_ORDER``.

Every optional subsystem reaches the platform through
``Turbine._attach`` and is started by the single loop over
``_START_ORDER``; a data-plane resiliency plane is switched on only by
its ``PlatformConfig`` toggle, and ``start()`` builds it before the first
Task Manager spawns. Four properties follow and are pinned here:

* a subsystem is attached once: a second ``attach_*`` raises, before or
  after ``start()``, and the first instance stays attached with each of
  its timers armed once (a replaced one would strand what it left in
  the fleet, or keep acting with an armed timer);
* attaching after ``start()`` arms each timer exactly once;
* a plane switched on by config reaches every Task Manager, the ones
  spawned after ``start()`` included, and arms its timer once;
* the order in which the optional subsystems were *attached* is
  invisible: same-timestamp timers fire in ``_START_ORDER`` order, so
  every export is byte-identical for any attach order.
"""

import ast
import inspect
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos.runner import WARMUP, platform_fingerprint
from repro.chaos.runner import build_platform as build_chaos_platform
from repro.chaos.scenarios import get_scenario
from repro.cluster import FailurePlan
from repro.jobs import syncer as syncer_module
from repro.jobs.plan import TaskActuator
from repro.jobs.syncer import StateSyncer
from repro.metrics import MetricStore
from repro.metrics.row import MetricRow
from repro.ops.timeline import IncidentTimeline
from repro.platform import _JOB_HOLDERS, _START_ORDER
from repro.scaler import AutoScalerConfig
from repro.sim.engine import Timer
from repro.workloads import DiurnalPattern, TrafficDriver

#: ``attach_*`` method -> (platform attribute, the timer names it arms).
STARTABLE = {
    "attach_scaler": ("scaler", ("auto-scaler",)),
    "attach_capacity_manager": ("capacity_manager", ("capacity-manager",)),
    "attach_health_reporter": ("health", ("health-reporter",)),
    "attach_slo": ("slo", ("slo-tracker",)),
    "attach_replication": (
        "replication", ("replication-lease", "replication-catchup"),
    ),
}

#: ``PlatformConfig`` plane toggle -> (platform attribute, the timer it
#: arms, the Task Manager attribute that holds it or ``None``).
PLANES = {
    "durable_checkpoints": (
        "checkpoint_plane", "checkpoint-plane", "checkpoint_plane",
    ),
    "hot_standby": ("standby", "standby-plane", "standby_plane"),
    "slow_node_detection": ("slow_nodes", "slow-node-detector", None),
}

#: Every plane toggle on.
ALL_PLANES = dict.fromkeys(PLANES, True)

#: Every ``attach_*`` method: the startable ones and the chaos engine,
#: which arms no timer until a scenario is scheduled.
ATTACHABLE = {**STARTABLE, "attach_chaos": ("chaos", ())}


def small_platform(method, **planes):
    """A two-host platform, with the ``planes`` toggles given, ready to
    have ``method`` called on it."""
    platform = Turbine.create(
        num_hosts=2, seed=3,
        config=PlatformConfig(num_shards=8, containers_per_host=2, **planes),
    )
    if method == "attach_capacity_manager":
        platform.attach_scaler()  # the one attach-order rule of the API
    return platform


def armed_timers(platform):
    """Name -> number of live queue events owned by an active Timer."""
    counts = Counter()
    for __, __, event in platform.engine.queue._heap:
        owner = getattr(event.callback, "__self__", None)
        if not event.cancelled and isinstance(owner, Timer) and owner.active:
            counts[owner.name] += 1
    return counts


def test_no_production_constructor_selects_a_reference_implementation():
    """The full-scan syncer is a subclass in ``repro.testing.reference``:
    production classes take no switch for it (nor does the metric store,
    which has one storage layout and one read path), and production code
    never imports the reference forms."""
    for production in (StateSyncer, MetricRow, MetricStore):
        parameters = set(inspect.signature(production).parameters)
        assert not parameters & {"incremental", "streaming"}, production
    package = Path(repro.__file__).parent
    imports_reference = re.compile(
        r"^\s*(from|import)\s+repro\.testing\b.*\breference\b", re.MULTILINE
    )
    assert [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "testing" not in path.relative_to(package).parts
        and imports_reference.search(path.read_text(encoding="utf-8"))
    ] == []


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="the interpreter lists its standard library from 3.10 on",
)
def test_the_package_is_one_process_of_standard_library_python():
    """``dependencies = []`` is a promise: every import under
    ``src/repro`` — inside a ``try`` or a function too — is the package
    itself or the standard library, and none is ``multiprocessing``. A
    second simulator came with exactly these two things (a
    ``numpy``-or-fallback double path and a worker pool), so neither can
    come back unnoticed."""
    allowed = (sys.stdlib_module_names | {"repro"}) - {"multiprocessing"}
    package = Path(repro.__file__).parent
    offenders = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign = {m.split(".")[0] for m in modules} - allowed
            if foreign:
                offenders.setdefault(
                    str(path.relative_to(package)), set()
                ).update(foreign)
    assert offenders == {}


def test_the_job_config_format_has_one_reader():
    """``JobView.from_config`` (``repro.jobs.model``) is the one parser
    of a job configuration and ``JobStore.view`` the one place a merged
    one is kept: outside ``repro/jobs/`` and the test references,
    production code (the task-spec generator and the ``ConvergenceChecker``
    included) imports no config key, indexes no config dict and asks for
    no merged dict. The checker's whole-dict verdict is the store's
    ``config_converged``, which compares every field, fields no reader
    has heard of included."""
    from repro.jobs import model

    keys = "|".join(
        value for name, value in vars(model).items() if name.startswith("KEY_")
    )
    parses = re.compile(
        rf"\bKEY_[A-Z_]+\b|\.get\(\s*[\"']({keys})[\"']"
        r"|\b(expected_config|merged_expected)\("
    )
    package = Path(repro.__file__).parent
    exempt = {Path("jobs"), Path("testing")}
    offenders = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if exempt & {relative, *relative.parents}:
            continue
        found = {match.group(0) for match in parses.finditer(
            path.read_text(encoding="utf-8")
        )}
        if found:
            offenders[str(relative)] = found
    assert offenders == {}


def test_every_started_subsystem_is_covered_here():
    """A subsystem added to ``_START_ORDER`` must join :data:`STARTABLE`."""
    always_on = {"shard_manager", "syncer", "stats"}
    optional = {attr for attr, _names in STARTABLE.values()}
    planes = {attr for attr, __, __ in PLANES.values()}
    assert set(_START_ORDER) == always_on | optional | planes
    assert len(_START_ORDER) == len(always_on) + len(optional) + len(planes)


@pytest.mark.parametrize("second_attach", ["before-start", "after-start"])
@pytest.mark.parametrize("method", sorted(ATTACHABLE))
def test_a_second_attach_raises_and_keeps_the_first(method, second_attach):
    attr, timer_names = ATTACHABLE[method]
    platform = small_platform(method)
    first = getattr(platform, method)()
    if method == "attach_scaler":
        # The Capacity Manager must keep working for the one scaler.
        platform.attach_capacity_manager()
    if second_attach == "after-start":
        platform.start()
    with pytest.raises(RuntimeError, match=f"^{attr} is already attached$"):
        getattr(platform, method)()
    platform.start()
    assert getattr(platform, attr) is first
    armed = armed_timers(platform)
    for timer_name in timer_names:
        assert armed[timer_name] == 1, timer_name
    if platform.capacity_manager is not None:
        assert platform.capacity_manager._scaler is platform.scaler
    platform.run_for(minutes=10)
    assert armed_timers(platform) == armed


def test_a_second_chaos_attach_leaves_the_faults_with_the_first_engine():
    """Regression: a second ``attach_chaos`` installed a new engine; the
    first kept its ``chaos-watch`` timer armed and recorded the MTTR
    where ``platform.chaos`` could no longer see it."""
    platform = build_chaos_platform(seed=7)
    platform.run_for(seconds=WARMUP)
    engine = platform.chaos
    engine.schedule(get_scenario("syncer-crash"))
    with pytest.raises(RuntimeError, match="^chaos is already attached$"):
        platform.attach_chaos()
    platform.run_for(minutes=15)
    assert platform.chaos is engine
    assert len(engine.mttr) == 1
    assert all(mttr is not None for mttr in engine.mttr.values())


def hosted_replicas(platform):
    """``(task id, container id)`` of every replica any manager hosts."""
    return {
        (task_id, container_id)
        for container_id, manager in platform.task_managers.items()
        for task_id in manager.standbys
    }


def test_a_standby_takeover_mid_fault_strands_nothing():
    """A replica promoted to cover for a primary on a dead host serves
    until its primary restarts, and every replica left hosted is one the
    plane knows, one per opted-in task."""
    platform = build_chaos_platform(seed=7, hot_standby=True)
    platform.run_for(seconds=WARMUP)
    task_id = "chaos/job-0:0"
    primary = next(
        manager for manager in platform.task_managers.values()
        if manager.alive and task_id in manager.tasks
    )
    platform.failures.fail_now(primary.container.host_id, label="test")
    platform.run_for(seconds=2)
    plane = platform.standby
    assert [r.task_id for r in plane.promotions].count(task_id) == 1
    platform.run_for(minutes=30)
    assert hosted_replicas(platform) == set(plane.placements.items())
    assert set(plane.placements) == {
        spec.task_id
        for job_id in platform.task_service.job_ids()
        for spec in platform.task_service.specs_of(job_id)
    }
    assert [
        event.kind for event in plane.events if task_id in event.detail
    ] == ["standby-promote", "standby-handoff"]
    assert all(
        not platform.task_managers[container_id].standbys[task].promoted
        for task, container_id in plane.placements.items()
    )


def test_a_gray_node_drain_mid_fault_strands_nothing():
    """The gray host the detector drained is undrained once its cooldown
    elapses: a drain left in place would keep its containers out of the
    placement pool for good."""
    platform = build_chaos_platform(seed=7, slow_node_detection=True)
    platform.run_for(seconds=WARMUP)
    platform.chaos.schedule(get_scenario("gray-node-drain"))
    detector = platform.slow_nodes
    for __ in range(20):
        platform.run_for(seconds=30)
        if detector.drained:
            break
    else:
        pytest.fail("the gray host was never drained")
    assert platform.shard_manager.drained
    platform.run_for(minutes=30)
    assert detector.drained == {}
    assert platform.shard_manager.drained == set()
    assert [event.kind for event in detector.events] == [
        "gray-node-drain", "gray-node-undrain",
    ]


@pytest.mark.parametrize("method", sorted(STARTABLE))
def test_attach_after_start_arms_each_timer_exactly_once(method):
    attr, timer_names = STARTABLE[method]
    platform = small_platform(method)
    platform.start()
    before = armed_timers(platform)
    subsystem = getattr(platform, method)()
    assert getattr(platform, attr) is subsystem
    after = armed_timers(platform)
    assert after - before == Counter(timer_names)
    # start() is idempotent: a second call arms nothing new.
    subsystem.start()
    platform.start()
    assert armed_timers(platform) == after


@pytest.mark.parametrize("toggle", sorted(PLANES))
def test_a_plane_switched_on_by_config_reaches_every_manager(toggle):
    """The toggle is the plane's one switch: ``start()`` builds it before
    the first manager spawns and arms its timer once however often it is
    called, and every Task Manager holds it — the ones ``start()``,
    ``add_host`` and ``recover_host`` spawn alike."""
    attr, timer_name, manager_attr = PLANES[toggle]
    platform = small_platform(None, **{toggle: True})
    assert getattr(platform, attr) is None
    platform.start()
    plane = getattr(platform, attr)
    assert plane is not None
    assert [name for name, (other, __, __) in PLANES.items()
            if getattr(platform, other) is not None] == [toggle]
    armed = armed_timers(platform)
    assert armed[timer_name] == 1
    platform.start()
    plane.start()
    assert armed_timers(platform) == armed
    first = set(platform.task_managers)
    platform.add_host("host-2")
    platform.failures.fail_now("host-0", label="test")
    platform.run_for(minutes=2)
    platform.recover_host("host-0")
    spawned_later = set(platform.task_managers) - first
    assert len(spawned_later) == 4  # two on host-2, two on host-0
    if manager_attr is not None:
        for manager in platform.task_managers.values():
            assert getattr(manager, manager_attr) is plane
    platform.run_for(minutes=10)
    assert getattr(platform, attr) is plane
    assert armed_timers(platform)[timer_name] == 1


def run_attached_in(order, seed):
    """A busy 40 minutes (traffic, scaling, a host loss) with every
    optional subsystem attached in ``order`` before ``start()`` and every
    plane switched on."""
    platform = Turbine.create(
        num_hosts=4, seed=seed,
        config=PlatformConfig(num_shards=32, containers_per_host=2, **ALL_PLANES),
    )
    platform.enable_tracing()
    platform.enable_instrumentation()
    for method in order:
        if method == "attach_scaler":
            platform.attach_scaler(AutoScalerConfig(interval=120.0))
        else:
            getattr(platform, method)()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(3):
        platform.provision(JobSpec(
            job_id=f"job-{index}", input_category=f"cat-{index}",
            task_count=2, rate_per_thread_mb=2.0, hot_standby=index == 0,
        ))
        driver.add_source(f"cat-{index}", DiurnalPattern(
            3.0 + index, amplitude=0.3,
            rng=platform.engine.rng.fork(f"wl-{index}"),
        ))
    driver.start()
    platform.failures.schedule(
        FailurePlan("host-1", fail_at=900.0, recover_at=1500.0)
    )
    platform.run_for(minutes=40)
    return {
        "trace": platform.tracer.to_jsonl(),
        "telemetry": platform.telemetry.to_jsonl(deterministic=True),
        "timeline": IncidentTimeline(platform).render(),
        "slo": platform.slo.to_json(platform.now),
        "fingerprint": platform_fingerprint(platform),
    }


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_attach_order_is_invisible_to_every_export(seed):
    canonical = list(STARTABLE)
    shuffled = list(canonical)
    random.Random(seed).shuffle(shuffled)
    # The one real ordering constraint of the public API.
    scaler = shuffled.index("attach_scaler")
    capacity = shuffled.index("attach_capacity_manager")
    if capacity < scaler:
        shuffled[scaler], shuffled[capacity] = (
            shuffled[capacity], shuffled[scaler],
        )
    assert shuffled != canonical
    golden = run_attached_in(canonical, seed)
    other = run_attached_in(shuffled, seed)
    for name in golden:
        assert other[name] == golden[name], f"{name} depends on attach order"
    assert golden["trace"] and golden["timeline"]


# ----------------------------------------------------------------------
# One way out for a job: ``_JOB_HOLDERS`` + ``TurbineActuator.forget_job``
# ----------------------------------------------------------------------
def test_every_job_holder_is_a_platform_attribute_with_both_methods():
    platform = small_platform("attach_capacity_manager", **ALL_PLANES)
    for method in STARTABLE:
        if method != "attach_scaler":  # small_platform attached it
            getattr(platform, method)()
    platform.start()  # builds the planes
    assert len(set(_JOB_HOLDERS)) == len(_JOB_HOLDERS)
    for name in _JOB_HOLDERS:
        holder = getattr(platform, name)
        assert holder is not None, name
        for method in ("forget_job", "held_jobs"):
            assert callable(vars(type(holder)).get(method)), (name, method)
    assert platform.actuator._job_holders() == [
        getattr(platform, name) for name in _JOB_HOLDERS
    ]
    # And the other way round: nothing attached enumerates jobs without
    # being in the table.
    assert {
        name for name, value in vars(platform).items()
        if callable(getattr(value, "held_jobs", None))
    } == set(_JOB_HOLDERS)


#: Classes that keep a container keyed by ``JobId`` and define no
#: ``forget_job``, each with the reason it needs none.
NO_FORGET_JOB_NEEDED = {
    "JobStore": "the owner: ``delete_job`` is the forget",
    "TaskService": "``TurbineActuator.forget_job`` drops the specs itself",
    "CheckpointStore": "``TurbineActuator.forget_job`` drops the offsets itself",
    "Turbine": "``task_hosts`` is written only by ``_host`` / ``_unhost``",
    "RootCauseAnalyzer": "not platform-wired; ``observe_configs`` prunes to "
                         "the live jobs every round",
}


def test_every_keeper_of_per_job_state_has_a_way_out():
    """A class that grows a ``Dict`` / ``Set`` / ``List`` attribute over
    ``JobId`` either forgets a deleted job or says here why it need not."""
    annotated = re.compile(
        r"^\s+self\.(\w+): (?:Dict|Set|List)\[[^=]*\bJobId\b", re.MULTILINE
    )
    class_header = re.compile(r"^class (\w+)", re.MULTILINE)
    package = Path(repro.__file__).parent
    exempt = {Path("testing")}
    keepers = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if exempt & {relative, *relative.parents}:
            continue
        source = path.read_text(encoding="utf-8")
        headers = list(class_header.finditer(source))
        for match in annotated.finditer(source):
            owner = [h for h in headers if h.start() < match.start()][-1]
            body_end = next(
                (h.start() for h in headers if h.start() > owner.start()),
                len(source),
            )
            keepers.setdefault(owner.group(1), set()).add(match.group(1))
            if "def forget_job(" not in source[owner.start():body_end]:
                assert owner.group(1) in NO_FORGET_JOB_NEEDED, (
                    f"{relative}: {owner.group(1)}.{match.group(1)} is keyed "
                    "by job and nothing forgets a deleted one"
                )
    # The guard sees the two attributes that were annotated for it.
    assert "_job_context" in keepers["Tracer"]
    assert "stopped_jobs" in keepers["CapacityManager"]
    assert set(NO_FORGET_JOB_NEEDED) <= set(keepers)


def test_the_actuator_seam_is_not_duck_typed():
    assert TaskActuator.__abstractmethods__ == {
        "apply_settings", "stop_tasks", "redistribute_checkpoints",
        "start_tasks",
    }
    assert "getattr(" not in inspect.getsource(syncer_module)
    # The one reclaim has exactly two callers under ``src/repro``.
    package = Path(repro.__file__).parent
    callers = {
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(r"actuator\.forget_job\b", path.read_text(encoding="utf-8"))
    }
    assert callers == {"platform.py", "jobs/syncer.py"}
