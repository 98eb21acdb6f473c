"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one table/figure of the paper: it runs the
simulation (once — these are experiments, not micro-benchmarks, so
``rounds=1``), prints the same rows/series the paper reports, and asserts
the qualitative *shape* (who wins, by roughly what factor, where the
crossover falls). Absolute numbers differ from the paper's production
fleet; EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import time

import pytest


def run_experiment(benchmark, fn):
    """Run a full experiment once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def experiment(benchmark):
    """Fixture: ``experiment(fn)`` runs fn once and returns its result."""
    def runner(fn):
        return run_experiment(benchmark, fn)

    return runner


@pytest.fixture
def timed_once(benchmark):
    """Fixture: ``timed_once(fn, *args)`` runs fn once; returns ``(result, s)``.

    The seconds are pytest-benchmark's own timing. ``--benchmark-disable``
    runs fn untimed and leaves ``benchmark.stats`` at ``None``; the call is
    then timed with ``perf_counter`` so the bench's bound still applies.
    """
    def runner(fn, *args):
        start = time.perf_counter()
        result = benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
        if benchmark.stats is None:
            return result, time.perf_counter() - start
        return result, benchmark.stats.stats.max

    return runner
