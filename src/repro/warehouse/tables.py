"""Warehouse tables with daily partitions."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TurbineError
from repro.types import sum_in_order


class WarehouseError(TurbineError):
    """A warehouse operation failed (unknown table, bad partition range)."""


class WarehouseTable:
    """A named table partitioned by day index."""

    def __init__(self, name: str) -> None:
        if not name:
            raise WarehouseError("table name must be non-empty")
        self.name = name
        #: day index (0 = epoch day) -> partition size in MB.
        self._partitions: Dict[int, float] = {}

    def add_partition(self, day: int, size_mb: float) -> None:
        """Land one day's partition (idempotent overwrite)."""
        if size_mb < 0:
            raise WarehouseError(f"partition size must be non-negative: {size_mb}")
        self._partitions[day] = size_mb

    def size_between(self, first_day: int, last_day: int) -> float:
        """Total MB over an inclusive day range."""
        if last_day < first_day:
            raise WarehouseError(
                f"bad range: {first_day}..{last_day}"
            )
        return sum_in_order(
            size for day, size in self._partitions.items()
            if first_day <= day <= last_day
        )

    def __repr__(self) -> str:
        return f"WarehouseTable({self.name!r}, days={len(self._partitions)})"


class DataWarehouse:
    """The registry of warehouse tables."""

    def __init__(self) -> None:
        self.tables: Dict[str, WarehouseTable] = {}

    def ensure_table(self, name: str) -> WarehouseTable:
        """Get or create a table."""
        if name not in self.tables:
            self.tables[name] = WarehouseTable(name)
        return self.tables[name]

    def get_table(self, name: str) -> WarehouseTable:
        try:
            return self.tables[name]
        except KeyError:
            raise WarehouseError(f"unknown table {name}") from None

    def land_daily(
        self, name: str, sizes_mb: List[float], first_day: int = 0
    ) -> WarehouseTable:
        """Land a run of consecutive daily partitions."""
        table = self.ensure_table(name)
        for offset, size in enumerate(sizes_mb):
            table.add_partition(first_day + offset, size)
        return table
