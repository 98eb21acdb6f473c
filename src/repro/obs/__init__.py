"""Control-plane observability: causal decision traces and telemetry.

The paper's operability story (section VII) rests on "tools that drill
down into the root cause of the problem". The data-plane side of that is
``repro.metrics`` (simulated job metrics) and ``repro.ops`` (health
percentages, incident timeline). This package adds the *control-plane*
side:

* :mod:`repro.obs.trace` — causal decision traces. A :class:`Tracer`
  mints deterministic trace/span ids and is threaded through the layers,
  so the chain detector symptom → scaler plan → Job Store write → State
  Syncer round → shard movement can be reconstructed for any job.
* :mod:`repro.obs.telemetry` — counters/gauges/histograms for the control
  plane itself (timer firings, callback wall-clock cost, sync-round batch
  sizes, balancer round cost, event-queue depth), kept separate from the
  simulated data-plane metric store.
* :mod:`repro.obs.sli` / :mod:`repro.obs.slo` — the SLO plane: per-job
  service-level indicators derived from the platform metric store, and
  declarative objectives with error budgets, breach windows, and
  Google-SRE multi-window burn-rate alerts.
* :mod:`repro.obs.critical_path` — longest-path analysis over causal
  traces ("which layer cost the most").
* :mod:`repro.obs.prom` — Prometheus text-format exposition of telemetry
  and SLO state.

All of it is zero-cost when disabled and records passively: no RNG
draws, no extra simulation events, so enabling observability never
perturbs an experiment.
"""

from repro.obs.critical_path import (
    CriticalPath,
    critical_paths,
    layer_costs,
    render_critical_path,
)
from repro.obs.prom import render_prometheus
from repro.obs.sli import FleetCounts, SliEvaluator
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    BreachWindow,
    BurnRateRule,
    SloSpec,
    SloTracker,
    default_slo_specs,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    EngineInstrumentation,
    Telemetry,
    is_deterministic_instrument,
)
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
    "Telemetry",
    "NULL_TELEMETRY",
    "EngineInstrumentation",
    "is_deterministic_instrument",
    "SliEvaluator",
    "FleetCounts",
    "SloSpec",
    "SloTracker",
    "BurnRateRule",
    "BreachWindow",
    "DEFAULT_BURN_RULES",
    "default_slo_specs",
    "CriticalPath",
    "critical_paths",
    "layer_costs",
    "render_critical_path",
    "render_prometheus",
]
