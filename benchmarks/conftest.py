"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one table/figure of the paper: it runs the
simulation (once — these are experiments, not micro-benchmarks, so
``rounds=1``), prints the same rows/series the paper reports, and asserts
the qualitative *shape* (who wins, by roughly what factor, where the
crossover falls). Absolute numbers differ from the paper's production
fleet; EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import gc
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


#: Rounds of each regression-gated benchmark; the gate reads the best.
#: On a shared 2-vCPU box the same round moves 20–50 % within one process,
#: in slow phases lasting several seconds: the best of 5 one-second
#: yardstick rounds still moved 0.57–1.04 s between runs, the best of 12
#: moved 0.54–0.60 s.
GATED_ROUNDS = 15


@pytest.fixture
def timed_best(benchmark):
    """Fixture: ``timed_best(fn, setup, rounds=GATED_ROUNDS)`` times
    ``fn(*setup())`` as the best of ``rounds`` rounds; returns ``(last
    result, best s)``.

    These are the rows ``check_regression.py`` gates. Each round gets a
    fresh input from ``setup`` (untimed) and a collected heap, then runs
    with the collector off, so a round measures the code and not the
    generation-2 passes its input happens to trigger. Under
    ``--benchmark-disable`` the call runs once, timed with
    ``perf_counter``.
    """
    def runner(fn, setup, rounds=GATED_ROUNDS):
        def fresh():
            args = setup()
            gc.collect()
            return args, {}

        def collector_off(*args):
            gc.disable()
            try:
                return fn(*args)
            finally:
                gc.enable()

        start = time.perf_counter()
        result = benchmark.pedantic(
            collector_off, setup=fresh, rounds=rounds, iterations=1,
        )
        if benchmark.stats is None:
            return result, time.perf_counter() - start
        return result, benchmark.stats.stats.min

    return runner
