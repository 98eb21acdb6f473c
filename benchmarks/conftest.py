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
import statistics
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


#: Rounds of each regression-gated benchmark.
#: On a shared 2-vCPU box the same round moves 20–50 % within one process,
#: in slow phases lasting several seconds: the best of 5 one-second
#: yardstick rounds still moved 0.57–1.04 s between runs, the best of 12
#: moved 0.54–0.60 s.
GATED_ROUNDS = 15


@pytest.fixture(scope="session")
def yardstick_round():
    """Fixture: ``yardstick_round()`` returns the seconds of one round of
    ``check_regression.REFERENCE``, the cold 100K-shard placement, run
    with the collector off on a tier built once per session."""
    from benchmarks.test_placement_speed import build_tier
    from repro.tasks import compute_assignment

    shards, containers = build_tier()

    def round_s() -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            compute_assignment(shards, containers)
            return time.perf_counter() - start
        finally:
            gc.enable()

    return round_s


@pytest.fixture
def timed_best(benchmark, request):
    """Fixture: ``timed_best(fn, setup, rounds=GATED_ROUNDS)`` times
    ``fn(*setup())`` as the best of ``rounds`` rounds; returns ``(last
    result, best s)``.

    These are the rows ``check_regression.py`` gates. Each round gets a
    fresh input from ``setup`` (untimed) and a collected heap, then runs
    with the collector off, so a round measures the code and not the
    generation-2 passes its input happens to trigger. A row other than
    the yardstick runs one yardstick round just before each of its own
    (untimed by pytest-benchmark) and keeps the median of the per-pair
    ratios as ``extra_info["ratio"]``, which is what the gate reads: a
    slow phase of the box stretches both rounds of a pair, where it
    stretched only one side of a best-of-best ratio. Under
    ``--benchmark-disable`` the call runs once, timed with
    ``perf_counter``, and no ratio is kept.
    """
    from benchmarks.check_regression import REFERENCE

    paired = benchmark.name != REFERENCE and not benchmark.disabled
    yardstick_round = request.getfixturevalue("yardstick_round") if paired else None
    yardstick: list = []

    def runner(fn, setup, rounds=GATED_ROUNDS):
        def fresh():
            args = setup()
            if paired:
                yardstick.append(yardstick_round())
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
        if paired:
            ratios = [
                row / yard
                for row, yard in zip(benchmark.stats.stats.data, yardstick)
            ]
            benchmark.extra_info["pair_ratios"] = ratios
            benchmark.extra_info["ratio"] = statistics.median(ratios)
        return result, benchmark.stats.stats.min

    return runner
