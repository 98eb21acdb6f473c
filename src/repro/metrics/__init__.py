"""Metrics substrate — a simulated metric collection system.

Turbine's detectors, estimators, and pattern analyzer all read from
Facebook's metric collection pipeline (task managers "post them via the
metric collection system to the Auto Scaler Symptom Detector", paper
section V-A; the pattern analyzer "records per minute workload metrics
during the last 14 days", section V-C). This package provides the
metric store those components read and the aggregation helpers (means,
percentiles, CDFs) the experiments report.

The store keeps one row per entity: the values a writer lands at one
``now`` share one packed time column, with one packed value column per
metric, each trimmed at its own retention. Every windowed read has one
path — bisect the window's bounds, reduce the slice in C — because every
window the platform reads is short enough that a rescan costs less than
rolling state kept up to date on every append (DESIGN.md, "Metrics
engine").
"""

from repro.metrics.aggregate import cdf_points, mean, percentile, stdev
from repro.metrics.row import Column, MetricRow
from repro.metrics.store import MetricStore

__all__ = [
    "Column",
    "MetricRow",
    "MetricStore",
    "mean",
    "stdev",
    "percentile",
    "cdf_points",
]
