"""Two-cluster host transfer during a regional event (section V-F).

"[The Capacity Manager] is authorized to temporarily transfer resources
between different clusters for better global resource utilization. This is
particularly useful during datacenter-wide events such as datacenter
outages or disaster simulation drills."

Scenario: cluster B absorbs redirected traffic and comes under capacity
pressure; cluster A (quiet) lends hosts; B adds them, the pressure clears,
and B's scaler resumes scaling unprivileged jobs.
"""

import pytest

import repro.scaler.capacity
from repro import JobSpec, PlatformConfig, ResourceVector, Turbine
from repro.types import Priority
from repro.workloads import TrafficDriver


@pytest.fixture(autouse=True)
def eager_capacity_manager(monkeypatch):
    monkeypatch.setattr(repro.scaler.capacity, "INTERVAL", 120.0)
    monkeypatch.setattr(repro.scaler.capacity, "PRESSURE_THRESHOLD", 0.30)
    monkeypatch.setattr(repro.scaler.capacity, "INSTABILITY_THRESHOLD", 0.9)


def build_cluster(num_hosts, seed):
    platform = Turbine.create(
        num_hosts=num_hosts, seed=seed,
        config=PlatformConfig(num_shards=32, containers_per_host=2),
    )
    platform.attach_scaler()
    platform.attach_capacity_manager()
    platform.start()
    return platform


def test_lent_hosts_relieve_pressure():
    lender = build_cluster(num_hosts=4, seed=51)
    borrower = build_cluster(num_hosts=2, seed=52)

    # Load the borrower close to its capacity threshold.
    driver = TrafficDriver(borrower.engine, borrower.scribe, tick=60.0)
    for index in range(4):
        borrower.provision(
            JobSpec(
                job_id=f"job-{index}", input_category=f"cat-{index}",
                task_count=6, priority=Priority.LOW,
                resources_per_task=ResourceVector(cpu=2.0, memory_gb=4.0),
            )
        )
        driver.add_source(f"cat-{index}", lambda t: 4.0)
    driver.start()
    borrower.run_for(minutes=6)
    assert borrower.capacity_manager.under_pressure
    assert borrower.scaler.priority_floor == Priority.HIGH

    # The global capacity operator moves two quiet hosts across clusters.
    lent = lender.capacity_manager.lend_hosts(2)
    assert len(lent) == 2
    for host_id in lent:
        borrower.add_host(f"borrowed-{host_id}")
    # Both engines advance (they are independent simulations).
    borrower.run_for(minutes=6)
    lender.run_for(minutes=6)

    assert not borrower.capacity_manager.under_pressure, (
        "doubling the host pool must clear the pressure"
    )
    assert borrower.scaler.priority_floor == Priority.LOW
    assert len(lender.cluster.live_hosts()) == 2

    # The borrowed hosts actually carry load after the next rebalance.
    borrower.run_for(minutes=35)
    borrowed_managers = [
        manager for manager in borrower.task_managers.values()
        if manager.container.host_id.startswith("borrowed-")
    ]
    assert borrowed_managers
    assert any(manager.assigned_shards for manager in borrowed_managers)
