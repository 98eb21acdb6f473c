"""What each container and each task keeps resident (DESIGN.md, "Resident
footprint"): no private ``__dict__`` per Task Manager, one edge pair per
platform, one resource vector per job shape, no set per placed task, and
per task only a spec handle on its job's template, with the job's tasks
sharing one data-plane lane."""

import tracemalloc

from repro import JobSpec, PlatformConfig, Turbine
from repro.cluster.container import TurbineContainer
from repro.cluster.resources import ResourceVector
from repro.scribe import ScribeBus
from repro.sim import Engine
from repro.jobs.model import JobView
from repro.tasks import RunningTask, TaskSpec
from repro.tasks.manager import TaskManager
from repro.tasks.service import TaskService
from repro.tasks.spec import SpecTemplate
from repro.testing.reference import EagerTaskManager

#: Bytes tracemalloc may count for one more task on a warm manager. The
#: one-element set a placed task once took in the location index was
#: 216 B by itself (248 B counted on 3.11, 308 B on 3.9); now 32 / 92 B.
MAX_HOSTING_BYTES = 128

#: Bytes tracemalloc may count a spec when a 512-task job's specs are
#: built, task id and list slot included: 305 B for a spec with its own
#: ``__dict__`` on 3.11 (349 B on 3.9); a handle on a shared template
#: counts 153 B (151 B on 3.9, 145 B on 3.12).
MAX_SPEC_BYTES = 176

#: Bytes tracemalloc may count a template built for a one-task job: the
#: template and its fingerprint tuple. 271 B when the template also kept
#: the eight fingerprinted fields in slots of its own; 207 B now (CPython
#: 3.9 to 3.13).
MAX_TEMPLATE_BYTES = 224


def job_specs(task_count):
    config = JobSpec(
        job_id="job", input_category="cat", task_count=task_count
    ).to_provisioner_config()
    return TaskService(Engine(seed=0), 8).set_job_specs("job", config)


def warm_manager(specs):
    """A manager hosting every spec but the last, with its location index;
    eight tasks leave every dict it writes room for a ninth."""
    scribe = ScribeBus()
    scribe.create_category("cat", 16)
    index = {}
    container = TurbineContainer("c0", ResourceVector(cpu=100.0, memory_gb=100.0))
    manager = TaskManager(Engine(seed=0), container, None, None, scribe, task_hosts=index)
    for spec in specs[:-1]:
        manager._host(RunningTask(spec, scribe), 0)
    return manager, index, RunningTask(specs[-1], scribe)


def test_a_platform_keeps_no_dict_per_manager_and_one_edge_pair():
    platform = Turbine.create(
        num_hosts=2, seed=1, config=PlatformConfig(containers_per_host=2),
    )
    platform.start()
    managers = list(platform.task_managers.values())
    assert len(managers) == 4
    for manager in managers:
        assert not hasattr(manager, "__dict__")
    assert len({(id(m._sm_dep), id(m._ts_dep)) for m in managers}) == 1
    eager = EagerTaskManager(
        Engine(seed=0), TurbineContainer("c0"), None, None, ScribeBus()
    )
    assert not hasattr(eager, "__dict__")


def test_the_tasks_of_one_job_share_one_resource_vector():
    specs = job_specs(64)
    assert len({id(spec.resources) for spec in specs}) == 1
    assert specs[0].resources == ResourceVector(cpu=0.5, memory_gb=0.5)


def test_a_one_host_index_entry_is_not_a_set():
    manager, index, task = warm_manager(job_specs(9))
    entry = index["job"]["job:0"]
    assert entry == ("c0",) and not isinstance(entry, set)
    manager.adopt_standby(RunningTask(task.spec, task._scribe))
    manager._host(task, 0)  # a primary and a replica of one id: one host
    assert index["job"]["job:8"] == ("c0",)


def test_hosting_one_more_task_on_a_warm_manager_stays_under_the_bound():
    manager, __, task = warm_manager(job_specs(9))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        manager._host(task, 0)
        counted = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert counted <= MAX_HOSTING_BYTES, counted


def test_a_spec_keeps_no_dict():
    spec = job_specs(4)[0]
    assert not hasattr(spec, "__dict__")
    assert not hasattr(spec.template, "__dict__")


def test_the_specs_of_one_job_share_one_template():
    specs = job_specs(64)
    assert len({id(spec.template) for spec in specs}) == 1
    assert [spec.task_index for spec in specs] == list(range(64))


def test_the_running_tasks_of_one_job_share_one_lane():
    scribe = ScribeBus()
    scribe.create_category("cat", 16)
    tasks = [RunningTask(spec, scribe) for spec in job_specs(8)]
    for task in tasks:
        assert task.bytes_lagged_mb() == 0.0  # resolves the lane
    assert len({id(task._lane) for task in tasks}) == 1
    assert tasks[0]._lane is tasks[0].spec.template.lane
    # The partition windows are each task's own.
    assert [task._window[0] for task in tasks] == [
        range(index, 16, 8) for index in range(8)
    ]


def test_building_a_512_task_jobs_specs_stays_under_the_bound():
    config = JobSpec(
        job_id="job", input_category="cat", task_count=512
    ).to_provisioner_config()
    view = JobView.from_config(config)
    TaskSpec.of_job("job", view)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        specs = TaskSpec.of_job("job", view)
        counted = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(specs) == 512
    assert counted / 512 <= MAX_SPEC_BYTES, counted / 512


#: The fields ``settings_fingerprint()`` names, in its order.
FINGERPRINTED = (
    "package_name", "package_version", "threads", "task_count", "resources",
    "input_category", "output_category", "rate_per_thread_mb",
)


def test_a_template_keeps_its_fingerprinted_fields_only_in_the_fingerprint():
    specs = job_specs(4)
    template = specs[0].template
    assert not set(FINGERPRINTED) & set(SpecTemplate.__slots__)
    assert [getattr(template, name) for name in FINGERPRINTED] == list(
        template.fingerprint
    )
    assert specs[3].settings_fingerprint() is template.fingerprint
    assert specs[3].threads == template.fingerprint[2]


def test_building_one_task_jobs_templates_stays_under_the_bound():
    job_ids = [f"job-{index}" for index in range(256)]
    views = [
        JobView.from_config(JobSpec(
            job_id=job_id, input_category="cat", task_count=1,
        ).to_provisioner_config())
        for job_id in job_ids
    ]
    resources = ResourceVector(cpu=0.5, memory_gb=0.5)
    SpecTemplate("job-0", views[0], resources)
    templates = [None] * len(views)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index, view in enumerate(views):
            templates[index] = SpecTemplate(job_ids[index], view, resources)
        counted = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert counted / len(views) <= MAX_TEMPLATE_BYTES, counted / len(views)
