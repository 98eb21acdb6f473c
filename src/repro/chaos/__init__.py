"""Deterministic control-plane chaos for the Turbine reproduction.

Declarative fault scenarios (:mod:`repro.chaos.scenarios`) run on the
simulation engine via :class:`ChaosEngine`, which records every fault
and measures MTTR — the time from a fault clearing to the platform's
safety and convergence invariants all holding again
(:mod:`repro.chaos.convergence`). :func:`run_scenario` packages the
standard deployment, warmup, and deterministic exports used by the
``repro chaos`` CLI and the golden determinism tests.
"""

from repro.chaos.convergence import ConvergenceChecker, InvariantReport
from repro.chaos.engine import CHECK_INTERVAL, ChaosEngine, ChaosRecord
from repro.chaos.scenarios import (
    FAULT_KINDS,
    ChaosScenario,
    Fault,
    all_scenarios,
    get_scenario,
)
from repro.chaos.runner import (
    WARMUP,
    ScenarioResult,
    build_platform,
    run_scenario,
)

__all__ = [
    "CHECK_INTERVAL",
    "FAULT_KINDS",
    "WARMUP",
    "ChaosEngine",
    "ChaosRecord",
    "ChaosScenario",
    "ConvergenceChecker",
    "Fault",
    "InvariantReport",
    "ScenarioResult",
    "all_scenarios",
    "build_platform",
    "get_scenario",
    "run_scenario",
]
