"""Tests for the Data Warehouse substrate."""

import pytest

from repro.warehouse import DataWarehouse, WarehouseTable
from repro.warehouse.tables import WarehouseError


class TestWarehouseTable:
    def test_partitions_land_and_query(self):
        table = WarehouseTable("clicks")
        table.add_partition(0, 100.0)
        table.add_partition(1, 150.0)
        assert table.size_between(0, 0) == 100.0
        assert table.size_between(1, 1) == 150.0
        assert table.size_between(2, 99) == 0.0

    def test_size_between_inclusive(self):
        table = WarehouseTable("clicks")
        for day in range(5):
            table.add_partition(day, 10.0)
        assert table.size_between(1, 3) == 30.0
        assert table.size_between(0, 4) == 50.0

    def test_bad_range_rejected(self):
        table = WarehouseTable("clicks")
        with pytest.raises(WarehouseError):
            table.size_between(3, 1)

    def test_overwrite_is_idempotent(self):
        table = WarehouseTable("clicks")
        table.add_partition(0, 100.0)
        table.add_partition(0, 120.0)
        assert table.size_between(0, 0) == 120.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(WarehouseError):
            WarehouseTable("")
        table = WarehouseTable("x")
        with pytest.raises(WarehouseError):
            table.add_partition(0, -1.0)


class TestDataWarehouse:
    def test_ensure_and_get(self):
        warehouse = DataWarehouse()
        table = warehouse.ensure_table("clicks")
        assert warehouse.get_table("clicks") is table
        assert warehouse.ensure_table("clicks") is table

    def test_unknown_table_rejected(self):
        with pytest.raises(WarehouseError):
            DataWarehouse().get_table("nope")

    def test_land_daily(self):
        warehouse = DataWarehouse()
        table = warehouse.land_daily("clicks", [10.0, 20.0, 30.0], first_day=5)
        assert table.size_between(5, 7) == 60.0
        assert table.size_between(0, 4) == table.size_between(8, 99) == 0.0
