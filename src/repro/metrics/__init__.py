"""Metrics substrate — a simulated metric collection system.

Turbine's detectors, estimators, and pattern analyzer all read from
Facebook's metric collection pipeline (task managers "post them via the
metric collection system to the Auto Scaler Symptom Detector", paper
section V-A; the pattern analyzer "records per minute workload metrics
during the last 14 days", section V-C). This package provides the
time-series store those components read and the aggregation helpers
(means, percentiles, CDFs) the experiments report.

The store is a streaming metrics engine: ring-buffer series storage with
lazy compaction, O(1)-amortized incremental trailing-window aggregates,
coarse rollup tiers for long-horizon reads, a histogram-sketch percentile
path behind a declared tolerance, and a batched ingestion fast path —
all byte-identical to the naive rescan each read falls back to when it
cannot be served incrementally. ``tests/metrics/test_streaming_equivalence.py``
checks that under hypothesis against the always-rescanning reference,
``repro.testing.reference.NaiveTimeSeries`` (production has no switch).
"""

from repro.metrics.aggregate import cdf_points, mean, percentile, stdev
from repro.metrics.series import TimeSeries
from repro.metrics.sketch import HistogramSketch
from repro.metrics.store import MetricStore

__all__ = [
    "TimeSeries",
    "MetricStore",
    "HistogramSketch",
    "mean",
    "stdev",
    "percentile",
    "cdf_points",
]
