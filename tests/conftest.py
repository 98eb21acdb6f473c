"""Suite-wide hypothesis profile.

Exploration stays random (no ``derandomize``), so a red CI run must be
replayable from its log alone: ``print_blob`` makes every failing
property print its ``@reproduce_failure`` line. Per-test
``@settings(max_examples=…, deadline=None)`` still apply on top.
"""

from hypothesis import settings

settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")
