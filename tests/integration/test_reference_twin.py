"""The whole-platform reference twin: every guard against its reference.

Each change-driven plane skips work when a version counter or an index
identity says nothing it reads has changed — the syncer's change feed,
the scaler's symptom gate, the SLO tracker's ledgers, the SLI
evaluator's merged view, the standby plane's two counters and a Task
Manager's reconcile guard. :func:`repro.testing.reference.reference_forms`
builds the platform from the forms that never skip, all at once. A run
built that way must export what the production run exports, byte for
byte: the five exports of every drill arm at three seeds, the set-up
and export digests and task-steps of the four benchmark workloads at
5 % scale, and a scripted arm for the two fleet-counter bumps no drill
reaches (a manager spawned mid-run, a container killed with its host
alive). A counter bump or a guard reset that some write path misses
shows up here as a divergence, whichever plane reads it.
"""

import pytest

from benchmarks.e2e import child
from benchmarks.e2e.workloads import WORKLOADS
from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos import all_scenarios, run_scenario
from repro.chaos.runner import build_platform, platform_fingerprint
from repro.tasks.standby import PROMOTION_LOG
from repro.testing.reference import REFERENCE_FORMS, reference_forms

SEEDS = (0, 7, 21)
#: The ``--control`` arms the export goldens keep
#: (``tests/golden/drills.sha256``): the three data-plane resiliency planes.
CONTROL_ARMS = (
    "checkpoint-restore-vs-cold-restart", "standby-takeover", "gray-node-drain",
)
ARMS = [(name, False) for name in all_scenarios()] + [
    (name, True) for name in CONTROL_ARMS
]


def drill_exports(name, seed, control):
    result = run_scenario(name, seed=seed, control=control)
    return {
        "fingerprint.json": result.fingerprint_json,
        "timeline.txt": result.timeline_text,
        "slo.json": result.slo_report_json,
        "telemetry.jsonl": result.telemetry_jsonl,
        "trace.jsonl": result.trace_jsonl,
    }


def test_the_twin_is_built_from_every_reference_form():
    """Vacuity guard: inside the block every swapped class is the
    reference form; outside it none is."""
    def built_classes():
        platform = build_platform(0, hot_standby=True)
        return {
            type(platform.syncer), type(platform.scaler), type(platform.slo),
            type(platform.sli), type(platform.standby), type(platform.metrics),
            *(type(manager) for manager in platform.task_managers.values()),
        }

    forms = {form for __, __, form in REFERENCE_FORMS}
    assert len(forms) == 7
    with reference_forms():
        assert built_classes() == forms
    assert not built_classes() & forms


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,control", ARMS,
    ids=[f"{name}{'-control' if control else ''}" for name, control in ARMS],
)
def test_every_drill_arm_exports_the_same_with_the_reference_forms(
    name, control, seed
):
    production = drill_exports(name, seed, control)
    with reference_forms():
        twin = drill_exports(name, seed, control)
    assert [
        export for export in production if production[export] != twin[export]
    ] == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_exports_the_same_with_the_reference_forms(workload):
    def outcome(result):
        return {
            "setup_sha256": result["setup_sha256"],
            "export_sha256": result["export_sha256"],
            "task_steps": result["task_steps"],
            "failed_ops": result["ops"]["failed"],
        }

    production = outcome(child.run(workload, scale=0.05))
    with reference_forms():
        twin = outcome(child.run(workload, scale=0.05))
    assert twin == production
    assert production["failed_ops"] == 0


def standby_record(platform):
    """The end state and everything the standby plane decided."""
    plane = platform.standby
    log = platform.scribe.logs.get(PROMOTION_LOG)
    return {
        "fingerprint": platform_fingerprint(platform),
        "promotions": list(plane.promotions),
        "placements": dict(plane.placements),
        "events": list(plane.events),
        "log": [payload for __, payload in log.read_from(0)] if log else [],
    }


def growth_then_container_kill():
    """The two fleet-counter bumps no drill reaches, one stage each.

    A hot-standby job starts on a one-host fleet, where no host is
    anti-affine to a primary, so no replica is placed. ``add_host`` spawns
    managers that can take the replicas, and nothing but the spawn tells
    the standby plane so. Then one primary's container is killed with its
    host alive, and nothing but the kill tells the plane so before the
    Shard Manager's fail-over. Returns the record after each stage."""
    platform = Turbine.create(num_hosts=1, seed=5, config=PlatformConfig(
        num_shards=8, containers_per_host=2, hot_standby=True,
    ))
    platform.start()
    platform.provision(JobSpec(
        job_id="job", input_category="cat", task_count=4, hot_standby=True,
    ))
    platform.run_for(minutes=3)
    records = [standby_record(platform)]
    platform.add_host("host-1")
    platform.run_for(seconds=5.0)
    records.append(standby_record(platform))
    victim = next(
        manager for manager in platform.task_managers.values() if manager.tasks
    )
    victim.container.kill()
    platform.run_for(seconds=5.0)
    records.append(standby_record(platform))
    return records


def test_a_hot_added_host_and_a_container_kill_match_the_reference_forms():
    production = growth_then_container_kill()
    with reference_forms():
        twin = growth_then_container_kill()
    assert [
        stage for stage, record in enumerate(production)
        if record != twin[stage]
    ] == []
    # Vacuity: each stage did what it is there for.
    assert production[0]["placements"] == {}
    assert production[1]["placements"] and not production[1]["promotions"]
    assert production[2]["promotions"]
