"""The Auto Scaler that stops at the symptom check against the one that
runs every stage for every job, on the rows no drill or workload builds.

Production (``AutoScaler``) ends a job's round right after ``detect`` when
there is no lag, no OOM and the quiet window cannot be open (Algorithm 2's
else branch), and runs the estimator, the quiet-window read and the plan
generator only on the paths that read them.
``repro.testing.reference.EagerAutoScaler`` runs all of them for every job,
with the quiet window read as a list over the whole window. The
whole-platform twin (``tests/integration/test_reference_twin.py``) runs it
under every drill and workload. The fixed rows here reach what those runs
do not: a P hint ≤ 0, an OOM exactly on the 600 s recency edge, and lag
series exactly 0.9 × ``downscale_after`` old and a minute younger. Both
forms must agree on every action, every untriaged report, the quiet-window
stamps, the Pattern Analyzer's state, the trace and the Job Store.
"""

import math
from dataclasses import asdict

from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore
from repro.metrics import MetricStore
from repro.obs.trace import Tracer
from repro.scaler import AutoScaler, AutoScalerConfig
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine
from repro.testing.reference import EagerAutoScaler
from repro.types import SLO, Priority

#: ``downscale_after`` of the built worlds (the quiet window).
WINDOW = 1200.0
#: First round; room for the oldest lag series (3 windows) behind it.
START = 4000.0
INTERVAL = 120.0

LAG = {
    "zero": lambda slo: 0.0,
    "above": lambda slo: math.nextafter(slo, math.inf),
}


def build(jobs, floor, eager):
    engine = Engine()
    engine.run_until(START)
    store = JobStore()
    tracer = Tracer(clock=lambda: engine.now, enabled=True)
    service = JobService(store, tracer=tracer)
    metrics = MetricStore()
    scribe = ScribeBus()
    kind = EagerAutoScaler if eager else AutoScaler
    scaler = kind(
        engine, service, metrics, scribe,
        config=AutoScalerConfig(interval=INTERVAL, downscale_after=WINDOW),
        tracer=tracer,
    )
    scaler.priority_floor = floor
    for index, job in enumerate(jobs):
        job_id = f"job-{index}"
        category = f"cat-{index}"
        scribe.create_category(category, job["partitions"])
        service.provision(JobSpec(
            job_id=job_id, input_category=category,
            task_count=job["task_count"], threads_per_task=job["threads"],
            stateful=job["stateful"], state_key_cardinality=2_000_000,
            priority=job["priority"],
            slo=SLO(max_lag_seconds=job["slo"], recovery_seconds=600.0),
            rate_per_thread_mb=max(job["hint"], 1.0),
        ))
        if job["hint"] <= 0:
            # Type-valid, and what JobSpec would have rejected.
            service.patch(
                job_id, ConfigLevel.ONCALL,
                {"perf": {"rate_per_thread_mb": job["hint"]}},
            )
        # A row's writes are time-ordered: gather the history, then land it.
        history = []
        if job["lag_age"] is not None:
            time = START - job["lag_age"]
            while time < START:
                history.append((time, "time_lagged", 0.01 * job["slo"]))
                time += 60.0
            if job["history_spike"]:
                history.append((time - 60.0, "time_lagged", job["slo"]))
        if job["oom_age"] is not None:
            history.append((START - job["oom_age"], "oom_events", 1.0))
        for time, metric, value in sorted(history, key=lambda write: write[0]):
            metrics.record(job_id, metric, time, value)
    return engine, store, tracer, metrics, scaler


def feed(metrics, jobs, now, round_index, store):
    for index, job in enumerate(jobs):
        job_id = f"job-{index}"
        row = job["rounds"][round_index]
        task_count = store.view(job_id).task_count
        running = {"none": 0, "some": max(1, task_count // 2), "all": task_count}[
            row["running"]
        ]
        processing = row["rate"] * running
        per_task = processing / running if running else 0.0
        for metric, value in (
            ("input_rate_mb", row["rate"]),
            ("processing_rate_mb", processing),
            ("bytes_lagged_mb", row["backlog"]),
            ("time_lagged", LAG[row["lag"]](job["slo"])),
            ("task_rate_stdev", row["imbalance"] * per_task),
            ("running_tasks", float(running)),
        ):
            metrics.record(job_id, metric, now, value)


def outcome(store, tracer, scaler, decisions):
    return {
        "decisions": decisions,
        "actions": scaler.actions,
        "untriaged": scaler.untriaged,
        "last_unhealthy": scaler._last_unhealthy,
        "analyzer": {
            job_id: asdict(state) for job_id, state in scaler.analyzer._jobs.items()
        },
        "trace": [event.to_json() for event in tracer.events],
        "store": store.dump_snapshot(),
    }


def run(jobs, floor, eager):
    engine, store, tracer, metrics, scaler = build(jobs, floor, eager)
    decisions = []
    for round_index in range(3):
        now = START + round_index * INTERVAL
        engine.run_until(now)
        feed(metrics, jobs, now, round_index, store)
        decisions.append(scaler.run_once())
    return outcome(store, tracer, scaler, decisions)


def test_the_generated_rows_reach_every_path():
    """Six fixed rows, both forms, one outcome: they reach downscales (on
    the 0.9-window edge and a round later), refused hints, lag and OOM
    decisions."""
    base = dict(
        task_count=6, threads=1, stateful=False, priority=Priority.NORMAL,
        slo=90.0, hint=2.0, partitions=16, lag_age=3.0 * WINDOW,
        history_spike=False, oom_age=None,
        rounds=[dict(lag="zero", running="all", rate=0.5, imbalance=0.0,
                     backlog=0.0)] * 3,
    )
    lagging = dict(base, lag_age=None, rounds=[
        dict(base["rounds"][0], lag="above", rate=9.0, backlog=1e5)] * 3)
    oom = dict(base, lag_age=None, oom_age=600.0)
    refused = dict(base, hint=0.0)
    # Observed exactly 0.9 windows long is long enough; a minute less is
    # not, until the next round.
    edge = dict(base, lag_age=0.9 * WINDOW)
    young = dict(base, lag_age=0.9 * WINDOW - 60.0)
    jobs = [base, lagging, oom, refused, edge, young]
    lazy = run(jobs, Priority.LOW, eager=False)
    assert lazy == run(jobs, Priority.LOW, eager=True)
    kinds = {(a.job_id, a.action.value) for a in lazy["actions"]}
    assert ("job-0", "downscale") in kinds
    downscaled = {
        a.job_id: a.time for a in lazy["actions"] if a.action.value == "downscale"
    }
    assert downscaled["job-4"] == START
    assert downscaled["job-5"] == START + INTERVAL
    assert ("job-1", "upscale_horizontal") in kinds or (
        ("job-1", "upscale_vertical") in kinds
    )
    assert ("job-2", "memory_increase") in kinds
    refusals = [a for a in lazy["untriaged"] if a.job_id == "job-3"]
    assert len(refusals) == 3
    assert all("rate_per_thread_mb=0.0" in a.reason for a in refusals)
    assert "job-3" not in lazy["analyzer"]
