"""The Scribe bus: the registry of categories plus a shared checkpoint store."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ScribeError
from repro.scribe.category import Category
from repro.scribe.checkpoints import CheckpointStore
from repro.scribe.log import CommandLog


class ScribeBus:
    """All categories in one region, plus the checkpoint store."""

    def __init__(self) -> None:
        self.categories: Dict[str, Category] = {}
        self.checkpoints = CheckpointStore()
        #: Record-bearing control-plane logs (command logs), by name.
        #: Kept in a separate namespace from data categories: the unit of
        #: a category is bytes, the unit of a log is ordered records.
        self.logs: Dict[str, CommandLog] = {}

    def create_category(self, name: str, num_partitions: int) -> Category:
        """Create a new category; names are unique."""
        if name in self.categories:
            raise ScribeError(f"category {name} already exists")
        category = Category(name, num_partitions)
        self.categories[name] = category
        self.checkpoints.fit(name, num_partitions)
        return category

    def get_category(self, name: str) -> Category:
        """Look up a category by name."""
        try:
            return self.categories[name]
        except KeyError:
            raise ScribeError(f"unknown category {name}") from None

    def ensure_category(self, name: str, num_partitions: int) -> Category:
        """Get the category, creating it if missing (idempotent provision)."""
        if name in self.categories:
            return self.categories[name]
        return self.create_category(name, num_partitions)

    def backlog_mb(self, job_id: str, category_name: str) -> float:
        """Unprocessed bytes (MB) of a category for one reading job: per
        partition, what is available past the job's committed offset.
        The category must exist."""
        return self.head_and_backlog_mb(job_id, category_name)[1]

    def head_and_backlog_mb(
        self, job_id: str, category_name: str
    ) -> Tuple[float, float]:
        """The category's total head and :meth:`backlog_mb`, from one walk
        of its columns. The category must exist."""
        category = self.get_category(category_name)
        return self.checkpoints.head_and_lag_mb(
            job_id, category, range(category.num_partitions)
        )

    # ------------------------------------------------------------------
    # Control-plane command logs
    # ------------------------------------------------------------------
    def create_log(
        self, name: str, retention: Optional[int] = None
    ) -> CommandLog:
        """Create a new command log; names are unique."""
        if name in self.logs:
            raise ScribeError(f"log {name} already exists")
        log = CommandLog(name, retention=retention)
        self.logs[name] = log
        return log

    def ensure_log(
        self, name: str, retention: Optional[int] = None
    ) -> CommandLog:
        """Get the log, creating it if missing (idempotent provision)."""
        if name in self.logs:
            return self.logs[name]
        return self.create_log(name, retention=retention)

    def drop_log(self, name: str) -> None:
        """Delete a command log and its records (a no-op when unknown)."""
        self.logs.pop(name, None)

    def __repr__(self) -> str:
        return (
            f"ScribeBus(categories={len(self.categories)}, "
            f"logs={len(self.logs)})"
        )
