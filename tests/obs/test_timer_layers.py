"""Every timer the platform arms belongs to a layer.

Per-layer cost is read off the timer a callback was dispatched under
(``layer.<layer>.wall_ms``, :data:`repro.obs.telemetry.TIMER_LAYERS`), and
the traced benchmark attributes its ``*_busy_s`` rows the same way
(``ROOT_FAMILIES`` in ``benchmarks/e2e/trace.py``). A renamed timer would
silently zero both, so this test arms every timer there is — a fully
attached chaos platform, all registered drills at seed 7 and the
Algorithm 2 scaler — and checks the names against both tables.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.chaos import all_scenarios, run_scenario
from repro.chaos.runner import build_platform
from repro.obs.telemetry import TIMER_LAYERS, timer_family
from repro.scaler.reactive import ReactiveAutoScaler
from repro.sim.engine import Engine

ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def trace():
    """``benchmarks/e2e/trace.py``, read where it lies (not edited)."""
    path = ROOT / "benchmarks" / "e2e" / "trace.py"
    spec = importlib.util.spec_from_file_location("e2e_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def armed():
    """Every timer created through ``Engine.every`` while the platform,
    the drills and the reactive scaler start up and run."""
    timers = []
    real_every = Engine.every

    def every(self, *args, **kwargs):
        timer = real_every(self, *args, **kwargs)
        timers.append(timer)
        return timer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "every", every)
        platform = build_platform(
            7, replication=True, durable_checkpoints=True,
            hot_standby=True, slow_node_detection=True, capacity_manager=True,
        )
        platform.run_for(minutes=5)
        for scenario in sorted(all_scenarios()):
            run_scenario(scenario, seed=7)
        ReactiveAutoScaler(
            platform.engine, platform.job_service, platform.metrics,
            platform.scribe,
        ).start()
    return timers


def test_every_armed_timer_family_has_a_layer(armed):
    families = {timer_family(timer.name) for timer in armed}
    assert sorted(families - set(TIMER_LAYERS)) == []
    # Not vacuous: every service in the table was armed, container
    # timers included.
    assert families == set(TIMER_LAYERS)


def test_every_family_the_traced_benchmark_attributes_is_armed(armed, trace):
    families = {timer_family(timer.name) for timer in armed}
    for row, named in sorted(trace.ROOT_FAMILIES.items()):
        assert sorted(set(named) - families) == [], row
        # One benchmark row is one layer.
        assert len({TIMER_LAYERS[family] for family in named}) == 1, row


def test_the_prefix_strip_is_the_traced_benchmarks(armed, trace):
    for timer in armed:
        assert trace.family_of(timer._fire) == timer_family(timer.name)
