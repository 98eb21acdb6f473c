"""Tests for batch-mode execution over the warehouse."""

import pytest

from repro.provision import (
    Aggregate,
    Field,
    Filter,
    Query,
    Schema,
    Shuffle,
    Sink,
    Source,
)
from repro.provision.batch import RATE_PER_WORKER_MB, BatchRunner
from repro.provision.query import QueryError
from repro.warehouse import DataWarehouse

EVENTS = Schema.of(
    Field("key", "int"), Field("valid", "bool"), Field("payload", "string"),
)


def backfill_query(selectivity=0.5):
    agg = Aggregate(
        Shuffle(
            Filter(Source("events", EVENTS, rate_mb=5.0), "valid",
                   selectivity=selectivity),
            "key",
        ),
        group_by="key",
        aggregates=("count",),
    )
    return Query("backfill", Sink(agg, "out"))


def warehouse_with_data(days=7, daily_mb=100.0):
    warehouse = DataWarehouse()
    warehouse.land_daily("events", [daily_mb] * days)
    return warehouse


class TestBatchRun:
    def test_reads_the_requested_range(self):
        runner = BatchRunner(warehouse_with_data())
        result = runner.run(backfill_query(), first_day=0, last_day=6)
        assert result.total_input_mb == pytest.approx(700.0)
        result_partial = runner.run(backfill_query(), first_day=2, last_day=4)
        assert result_partial.total_input_mb == pytest.approx(300.0)

    def test_stage_reduction_flows_through(self):
        """Stage 0 filters half away; stage 1 aggregates 10:1."""
        runner = BatchRunner(warehouse_with_data())
        result = runner.run(backfill_query(selectivity=0.5), 0, 6)
        assert len(result.stages) == 2
        assert result.stages[0].output_mb == pytest.approx(350.0)
        assert result.stages[1].input_mb == pytest.approx(350.0)
        assert result.output_mb == pytest.approx(35.0)

    def test_more_workers_run_faster(self):
        runner = BatchRunner(warehouse_with_data())
        slow = runner.run(backfill_query(), 0, 6, workers=2)
        fast = runner.run(backfill_query(), 0, 6, workers=8)
        assert fast.total_duration_seconds == pytest.approx(
            slow.total_duration_seconds / 4
        )

    def test_duration_is_sum_of_sequential_stages(self):
        runner = BatchRunner(warehouse_with_data())
        result = runner.run(backfill_query(selectivity=0.5), 0, 6, workers=1)
        expected = 700.0 / RATE_PER_WORKER_MB + 350.0 / RATE_PER_WORKER_MB
        assert result.total_duration_seconds == pytest.approx(expected)

    def test_missing_table_rejected(self):
        runner = BatchRunner(DataWarehouse())
        from repro.warehouse.tables import WarehouseError

        with pytest.raises(WarehouseError):
            runner.run(backfill_query(), 0, 6)

    def test_invalid_parameters_rejected(self):
        runner = BatchRunner(warehouse_with_data())
        with pytest.raises(QueryError):
            runner.run(backfill_query(), 0, 6, workers=0)

    def test_empty_range_is_free(self):
        runner = BatchRunner(warehouse_with_data(days=3))
        result = runner.run(backfill_query(), first_day=10, last_day=12)
        assert result.total_input_mb == 0.0
        assert result.total_duration_seconds == 0.0
