"""Tests for the resource estimators (equations 2 and 3)."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.scaler.estimators
from repro.errors import ScalerError
from repro.scaler import ResourceEstimator
from tests.scaler.helpers import make_snapshot


def margins(**values):
    """Patch the estimator's safety margins (``CPU_MARGIN`` /
    ``MEMORY_MARGIN``); usable as a decorator."""
    return mock.patch.multiple(repro.scaler.estimators, **values)


def test_equation_2_steady_state():
    """X=10 MB/s, P=2 MB/s, k=1 → raw need 5 tasks; margin 20% → 6."""
    assert repro.scaler.estimators.CPU_MARGIN == 0.2
    estimator = ResourceEstimator()
    snapshot = make_snapshot(input_rate_mb=10.0, threads=1)
    estimate = estimator.estimate(snapshot, rate_per_thread=2.0)
    assert estimate.min_task_count == 5
    assert estimate.steady_task_count == 6


@margins(CPU_MARGIN=0.0)
def test_threads_scale_capacity_linearly():
    """"The processing rate increases linearly with the number of tasks
    and threads" — doubling k halves the task count."""
    estimator = ResourceEstimator()
    one = estimator.estimate(
        make_snapshot(input_rate_mb=8.0, threads=1), rate_per_thread=2.0
    )
    two = estimator.estimate(
        make_snapshot(input_rate_mb=8.0, threads=2), rate_per_thread=2.0
    )
    assert one.steady_task_count == 4
    assert two.steady_task_count == 2


@margins(CPU_MARGIN=0.0)
def test_equation_3_includes_backlog():
    """B=3600 MB recovered over t=3600 s adds 1 MB/s of required rate."""
    estimator = ResourceEstimator()
    snapshot = make_snapshot(
        input_rate_mb=4.0, backlog_mb=3600.0, slo_recovery_seconds=3600.0,
    )
    estimate = estimator.estimate(snapshot, rate_per_thread=1.0)
    assert estimate.steady_task_count == 4
    assert estimate.recovery_task_count == 5


def test_recovery_never_below_steady():
    estimator = ResourceEstimator()
    snapshot = make_snapshot(input_rate_mb=10.0, backlog_mb=0.0)
    estimate = estimator.estimate(snapshot, rate_per_thread=2.0)
    assert estimate.recovery_task_count >= estimate.steady_task_count


def test_idle_job_needs_one_task():
    estimator = ResourceEstimator()
    estimate = estimator.estimate(
        make_snapshot(input_rate_mb=0.0), rate_per_thread=2.0
    )
    assert estimate.min_task_count == 1
    assert estimate.steady_task_count == 1


@margins(MEMORY_MARGIN=0.0)
def test_stateless_memory_is_base_plus_buffer():
    estimator = ResourceEstimator()
    estimate = estimator.estimate(
        make_snapshot(input_rate_mb=0.0), rate_per_thread=2.0
    )
    # base 0.4 + 2 MB/s * 5 s / 1000 = 0.41 GB
    assert estimate.memory_per_task_gb == pytest.approx(0.41)
    assert estimate.disk_per_task_gb == 0.0


@margins(MEMORY_MARGIN=0.0)
def test_stateful_memory_proportional_to_keys():
    """"the memory size is proportional to the key cardinality"."""
    estimator = ResourceEstimator()
    small = estimator.estimate(
        make_snapshot(stateful=True, state_key_cardinality=1_000_000),
        rate_per_thread=2.0,
    )
    large = estimator.estimate(
        make_snapshot(stateful=True, state_key_cardinality=4_000_000),
        rate_per_thread=2.0,
    )
    assert large.memory_per_task_gb > small.memory_per_task_gb
    assert large.disk_per_task_gb > small.disk_per_task_gb


@margins(CPU_MARGIN=0.0)
def test_network_estimate_scales_with_throughput():
    """The estimator covers all four dimensions the paper names —
    CPU, memory, network bandwidth, and disk I/O (section V-B)."""
    estimator = ResourceEstimator()
    quiet = estimator.estimate(
        make_snapshot(input_rate_mb=2.0), rate_per_thread=2.0
    )
    busy = estimator.estimate(
        make_snapshot(input_rate_mb=20.0), rate_per_thread=2.0
    )
    assert quiet.network_per_task_mbps > 0
    # Per-task throughput is ~P in both cases, so per-task network is
    # similar; total network (× task count) scales with input.
    assert (
        busy.network_per_task_mbps * busy.recovery_task_count
        > quiet.network_per_task_mbps * quiet.recovery_task_count * 5
    )


def test_invalid_rate_rejected():
    with pytest.raises(ScalerError):
        ResourceEstimator().estimate(make_snapshot(), rate_per_thread=0.0)


class TestProperties:
    @given(
        input_rate=st.floats(min_value=0.0, max_value=1000.0),
        rate=st.floats(min_value=0.1, max_value=50.0),
        threads=st.integers(min_value=1, max_value=4),
    )
    @margins(CPU_MARGIN=0.0)
    def test_capacity_at_steady_count_covers_input(self, input_rate, rate, threads):
        """The floor estimate always provides at least the input rate."""
        estimator = ResourceEstimator()
        snapshot = make_snapshot(input_rate_mb=input_rate, threads=threads)
        estimate = estimator.estimate(snapshot, rate_per_thread=rate)
        capacity = estimate.min_task_count * threads * rate
        assert capacity >= input_rate - 1e-6

    @given(
        backlog=st.floats(min_value=0.0, max_value=100000.0),
        recovery=st.floats(min_value=60.0, max_value=86400.0),
    )
    @margins(CPU_MARGIN=0.0)
    def test_recovery_capacity_drains_backlog(self, backlog, recovery):
        estimator = ResourceEstimator()
        snapshot = make_snapshot(
            input_rate_mb=5.0, backlog_mb=backlog,
            slo_recovery_seconds=recovery,
        )
        estimate = estimator.estimate(snapshot, rate_per_thread=2.0)
        capacity = estimate.recovery_task_count * 2.0
        assert capacity >= 5.0 + backlog / recovery - 1e-6
