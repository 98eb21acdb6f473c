"""Workload generators.

The paper evaluates Turbine on production traffic; these generators produce
the synthetic equivalents each experiment needs:

* :mod:`repro.workloads.diurnal` — daily traffic curves with ~1 %
  day-over-day variation (the pattern analyzer's bread and butter,
  section V-C);
* :mod:`repro.workloads.spikes` — transient traffic spikes (Fig. 7's
  trigger);
* :mod:`repro.workloads.storm` — disaster-drill traffic redirection
  (Fig. 9: +16 % at peak);
* :mod:`repro.workloads.scuba` — a Scuba Tailer fleet whose per-task
  CPU/memory footprints match the published distributions (Fig. 5);
* :mod:`repro.workloads.driver` — the traffic driver that pushes generated
  bytes into Scribe categories on the simulation clock.
"""

from repro.workloads.diurnal import DiurnalPattern
from repro.workloads.driver import TrafficDriver
from repro.workloads.scuba import ScubaFleet, ScubaJobProfile
from repro.workloads.spikes import SpikeSchedule
from repro.workloads.storm import StormSchedule

__all__ = [
    "DiurnalPattern",
    "TrafficDriver",
    "SpikeSchedule",
    "StormSchedule",
    "ScubaFleet",
    "ScubaJobProfile",
]
