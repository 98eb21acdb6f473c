"""``platform_fingerprint`` writes the state piece by piece; its text must
be exactly what one ``json.dump(state, sort_keys=True, indent=2)`` of the
whole state dict writes."""

import io
import json

from repro.chaos import build_platform
from repro.chaos.runner import platform_fingerprint


def whole_state_text(platform):
    checkpoints = platform.scribe.checkpoints
    state = {
        "now": platform.now,
        "checkpoints": {
            job_id: {
                partition_id: checkpoints.get(job_id, partition_id)
                for partition_id in checkpoints.partitions_of(job_id)
            }
            for job_id in platform.job_store.job_ids()
        },
        "managers": {
            container_id: {
                "oom_events": manager.oom_events,
                "reboots": manager.reboot_count,
                "tasks": {
                    task_id: {
                        "state": task.state.name,
                        "processed_mb": task.total_processed_mb,
                        "oom_count": task.oom_count,
                    }
                    for task_id, task in manager.tasks.items()
                },
            }
            for container_id, manager in platform.task_managers.items()
        },
        "heads": {
            name: [partition.head for partition in category.partitions]
            for name, category in platform.scribe.categories.items()
        },
    }
    out = io.StringIO()
    json.dump(state, out, sort_keys=True, indent=2)
    return out.getvalue()


def test_fingerprint_is_the_json_dump_of_the_whole_state():
    platform = build_platform(7, durable_checkpoints=True)
    assert platform_fingerprint(platform) == whole_state_text(platform)
    platform.run_for(seconds=300)
    text = platform_fingerprint(platform)
    assert text == whole_state_text(platform)
    assert '"checkpoints": {\n    "chaos/job-0": {' in text


def test_empty_objects_print_as_json_does():
    """A job with no cursors is ``{}``, not an opened and closed object."""
    platform = build_platform(7)
    platform.run_for(seconds=60)
    platform.scribe.checkpoints.drop_job("chaos/job-0")
    text = platform_fingerprint(platform)
    assert '"chaos/job-0": {},' in text
    assert text == whole_state_text(platform)
