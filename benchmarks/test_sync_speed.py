"""Section III-B scalar claim — batched simple synchronization speed.

"We can perform simple synchronizations of tens of thousands of jobs
within seconds through batching."
"""

from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore, StateSyncer
from repro.testing import NullActuator

NUM_JOBS = 20_000


def build_fleet():
    store = JobStore()
    service = JobService(store)
    for index in range(NUM_JOBS):
        service.provision(
            JobSpec(job_id=f"job-{index:06d}", input_category="cat")
        )
    syncer = StateSyncer(store, NullActuator())
    syncer.sync_once()  # initial complex syncs, not what we measure
    # A global package release: every job needs one simple sync.
    for job_id in service.job_ids():
        service.patch(
            job_id, ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "2.0"}},
        )
    return syncer


def test_simple_sync_twenty_thousand_jobs(timed_once):
    syncer = build_fleet()

    report, elapsed = timed_once(syncer.sync_once)
    print(f"\n{len(report.simple_synced):,} simple syncs in {elapsed:.2f}s "
          f"(paper: tens of thousands within seconds)")
    assert len(report.simple_synced) == NUM_JOBS
    assert report.complex_synced == []
    assert elapsed < 30.0
