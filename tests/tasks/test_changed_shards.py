"""A Task Manager refresh reconciles only the shards whose tasks changed.

The Task Service keeps the dict of every shard a rebuild leaves
unchanged, so after one job's specs change, the next refresh of every
manager finds one changed shard entry: only the manager holding that
shard reconciles, and only that shard. Counts, not timings.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.jobs import ConfigLevel
from repro.tasks.manager import REFRESH_INTERVAL, TaskManager
from repro.tasks.service import CACHE_TTL
from repro.tasks.shard import shard_id_for_task

JOBS = 16
SHARDS = 64


@pytest.fixture
def converged():
    platform = Turbine.create(
        num_hosts=4, seed=5,
        config=PlatformConfig(num_shards=SHARDS, containers_per_host=2),
    )
    platform.start()
    for index in range(JOBS):
        platform.provision(
            JobSpec(job_id=f"job-{index:02d}", input_category=f"cat-{index:02d}",
                    task_count=1),
            partitions=2,
        )
    platform.run_for(minutes=10)
    assert len(platform.task_managers) == 8
    assert all(platform.tasks_of_job(f"job-{i:02d}") for i in range(JOBS))
    return platform


@pytest.fixture
def reconciles(monkeypatch):
    calls = []
    real = TaskManager._reconcile_shard

    def counted(self, shard_id):
        calls.append((self.container_id, shard_id))
        return real(self, shard_id)

    monkeypatch.setattr(TaskManager, "_reconcile_shard", counted)
    return calls


def holder(platform, job_id):
    """The container running the job's one task, and the task's shard."""
    shard = shard_id_for_task(f"{job_id}:0", SHARDS)
    (container,) = [
        manager.container_id for manager in platform.task_managers.values()
        if shard in manager.assigned_shards
    ]
    return container, shard


def test_a_lazy_package_push_reconciles_only_its_shard(converged, reconciles):
    job_id = "job-05"
    container, shard = holder(converged, job_id)
    converged.job_service.patch(job_id, ConfigLevel.PROVISIONER, {
        "package": {"name": "stream_engine", "version": "9.9"},
    })
    # A syncer round, the Task Service's TTL, then one refresh period.
    converged.run_for(seconds=30 + CACHE_TTL + REFRESH_INTERVAL + 30)
    assert reconciles == [(container, shard)]
    task = converged.task_managers[container].tasks[f"{job_id}:0"]
    assert task.spec.package_version == "9.9"


def test_an_urgent_removal_reconciles_only_its_shard(converged, reconciles):
    job_id = "job-11"
    container, shard = holder(converged, job_id)
    converged.task_service.remove_job(job_id)
    converged.run_for(seconds=REFRESH_INTERVAL + 30)
    assert reconciles == [(container, shard)]
    assert converged.tasks_of_job(job_id) == []

