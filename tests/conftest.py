"""Suite-wide hypothesis profile.

Exploration stays random (no ``derandomize``), so a red CI run must be
replayable from its log alone: ``print_blob`` makes every failing
property print its ``@reproduce_failure`` line. Per-test
``@settings(max_examples=…, deadline=None)`` still apply on top.
"""

import pytest
from hypothesis import settings

settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture
def count_merges(monkeypatch):
    """Call it to start counting the Job Store's Algorithm 1 merges
    (``merge_levels`` calls); it returns the list each call appends to."""
    import repro.jobs.store as store_module

    def start():
        calls = []
        real = store_module.merge_levels

        def counted(levels):
            calls.append(1)
            return real(levels)

        monkeypatch.setattr(store_module, "merge_levels", counted)
        return calls

    return start
