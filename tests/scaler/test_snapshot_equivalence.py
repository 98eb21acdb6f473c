"""Property test: ``snapshot_job`` over a metric row ≡ the store-read form.

Production takes the job's row once (``MetricStore.row``) and reads every
number off it; ``repro.testing.reference.snapshot_job_store_read`` is the
form it replaced — one ``metrics.latest`` / ``metrics.series`` call per
number, over the per-metric store it replaced. Both are run against
stores that ingested the same samples and must build ``==`` snapshots
for any subset of metrics, any sample times and any read time — including a read ``now`` behind the newest sample,
and an OOM event exactly on the edge of the recency window.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import JobSpec, JobView
from repro.metrics import MetricStore
from repro.scaler.snapshot import RATE_WINDOW, snapshot_job
from repro.testing.reference import PerMetricStore, snapshot_job_store_read

METRICS = (
    "input_rate_mb", "processing_rate_mb", "bytes_lagged_mb", "time_lagged",
    "task_rate_stdev", "running_tasks", "oom_events",
)
VIEW = JobView.from_config(
    JobSpec(
        job_id="job", input_category="cat", task_count=4, threads_per_task=2,
        rate_per_thread_mb=3.0,
    ).to_provisioner_config()
)

value = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
#: Per metric: absent, or a list of (gap to the next sample, value).
series = st.one_of(
    st.none(),
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 60.0, 61.5, 600.0]), value),
        max_size=30,
    ),
)


def stores(samples_by_metric):
    """The row store and the per-metric one fed the same writes, in time
    order (a row's writes are; the order of one metric's samples is kept)."""
    pair = MetricStore(), PerMetricStore()
    writes = []
    for metric, samples in samples_by_metric.items():
        if samples is None:
            continue
        time = 0.0
        for gap, sample in samples:
            time += gap
            writes.append((time, metric, sample))
    writes.sort(key=lambda write: write[0])
    for time, metric, sample in writes:
        for store in pair:
            store.record("job", metric, time, sample)
    return pair, max((time for time, __, __ in writes), default=0.0)


@settings(max_examples=200, deadline=None)
@given(
    samples_by_metric=st.fixed_dictionaries({m: series for m in METRICS}),
    offset=st.sampled_from([0.0, 0.5, 60.0, RATE_WINDOW, 601.0, -45.0, 5000.0]),
    partitions=st.integers(0, 64),
)
def test_row_snapshot_equals_store_read_snapshot(
    samples_by_metric, offset, partitions
):
    (row_store, read_store), newest = stores(samples_by_metric)
    now = max(0.0, newest + offset)
    columns_before = len(row_store.row("job"))
    production = snapshot_job(
        "job", VIEW, row_store, now, input_partitions=partitions
    )
    reference = snapshot_job_store_read(
        "job", VIEW, read_store, now, input_partitions=partitions
    )
    assert production == reference
    assert len(row_store.row("job")) == columns_before, "a read created a column"
    # An unknown job reads as all-defaults in both forms.
    assert snapshot_job("ghost", VIEW, row_store, now) == (
        snapshot_job_store_read("ghost", VIEW, read_store, now)
    )
    assert "ghost" not in row_store._rows


def test_oom_exactly_on_the_window_edge_counts_in_both_forms():
    """``values_in`` is inclusive at both ends: an OOM at ``now - 600`` is
    still recent, one a millisecond earlier is not."""
    for age, recent in ((600.0, True), (600.001, False), (0.0, True)):
        (row_store, read_store), __ = stores(
            {"oom_events": [(1000.0 - age, 1.0)], "running_tasks": [(1000.0, 2.0)]}
        )
        production = snapshot_job("job", VIEW, row_store, 1000.0)
        assert production.oom_recently is recent
        assert production == snapshot_job_store_read(
            "job", VIEW, read_store, 1000.0
        )
