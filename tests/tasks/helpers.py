"""Drive lone tasks through the one step body the Task Manager uses."""

from repro.jobs import JobSpec
from repro.tasks import RunningTask, TaskSpec
from repro.tasks.runtime import step_container

#: A CPU limit of 0 disables the contention model (no cgroup limit).
NO_CPU_LIMIT = 0.0


def step(task, dt, throttle=1.0):
    """One container step of ``task`` alone; returns the MB it processed.

    ``throttle`` arrives the way a gray node's does — as the container's
    slow factor.
    """
    before = task.total_processed_mb
    step_container(task._scribe, [task], (), dt, NO_CPU_LIMIT, throttle)
    return task.total_processed_mb - before


def desired_cores(task, dt):
    """Cores ``task`` wants for its next step, read off the throttle of a
    container step (which it takes — call this last).

    A saturated one-thread probe shares a half-core container with
    ``task``: everyone is throttled to ``0.5 / (wanted + 1)``, and the
    probe drains ``2 MB/s · dt`` times that.
    """
    scribe = task._scribe
    scribe.create_category("probe", 1).append(1000.0)
    config = JobSpec(
        job_id="probe", input_category="probe", rate_per_thread_mb=2.0
    ).to_provisioner_config()
    probe = RunningTask(TaskSpec.from_job_config("probe", 0, config), scribe)
    step_container(scribe, [task, probe], (), dt, 0.5)
    return 0.5 * 2.0 * dt / probe.total_processed_mb - 1.0


def python_calls(function, builtins=False):
    """Python-level ``call`` events while ``function()`` runs — what the
    call-count guards compare between fleet sizes; with ``builtins``,
    calls into C functions (``c_call``) count too. The collector is held
    off meanwhile: a finalizer it happens to run is a call too."""
    import gc
    import sys

    calls = 0
    events = ("call", "c_call") if builtins else ("call",)

    def count(frame, event, arg):
        nonlocal calls
        calls += event in events

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls
