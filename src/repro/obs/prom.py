"""Prometheus text-format exposition of telemetry and SLO state.

One function, :func:`render_prometheus`, renders a point-in-time
scrape-able snapshot:

* every :class:`~repro.obs.telemetry.Telemetry` instrument — counters as
  ``*_total``, gauges verbatim, histograms as ``*_bucket``/``_sum``/
  ``_count`` with cumulative ``le`` buckets;
* when an :class:`~repro.obs.slo.SloTracker` is given, per-(job, SLO)
  series with labels: current budget burn, 1-hour burn rate, and breach
  counts.

Names are sanitized to the Prometheus charset and prefixed ``repro_``.
With ``deterministic=True`` the telemetry side drops the same
instruments :func:`~repro.obs.telemetry.is_deterministic_instrument`
excludes from JSONL exports, so the text is byte-identical per seed.
"""

from __future__ import annotations

import re
from typing import List

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPE = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def sanitize_metric_name(name: str) -> str:
    """Map an instrument name onto the Prometheus metric charset."""
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return f"repro_{clean}"


def _escape_label(value: str) -> str:
    return value.translate(_LABEL_ESCAPE)


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_prometheus(
    telemetry=None,
    slo=None,
    deterministic: bool = False,
) -> str:
    """A Prometheus text-format snapshot (version 0.0.4 exposition)."""
    lines: List[str] = []
    if telemetry is not None:
        lines.extend(_telemetry_lines(telemetry, deterministic))
    if slo is not None:
        lines.extend(_slo_lines(slo))
    return "".join(line + "\n" for line in lines)


def _telemetry_lines(telemetry, deterministic: bool) -> List[str]:
    snapshot = telemetry.snapshot(deterministic=deterministic)
    lines: List[str] = []
    for name, value in snapshot["counters"].items():
        metric = sanitize_metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, payload in snapshot["gauges"].items():
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(payload['value'])}")
    # Histograms: the snapshot carries the summary view; cumulative
    # buckets need the raw instrument, so read it off the registry.
    for name in sorted(telemetry.histograms):
        if name not in snapshot["histograms"]:
            continue  # filtered by the deterministic gate
        histogram = telemetry.histograms[name]
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_format_value(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")
    return lines


def _slo_lines(slo) -> List[str]:
    report = slo.report()
    lines: List[str] = []
    rows = report["slos"]
    if rows:
        lines.append("# TYPE repro_slo_budget_burned gauge")
        for row in rows:
            labels = (
                f'job="{_escape_label(row["job"])}",'
                f'slo="{_escape_label(row["slo"])}"'
            )
            lines.append(
                f"repro_slo_budget_burned{{{labels}}} "
                f"{_format_value(row['budget_burned'])}"
            )
        lines.append("# TYPE repro_slo_burn_rate_1h gauge")
        for row in rows:
            labels = (
                f'job="{_escape_label(row["job"])}",'
                f'slo="{_escape_label(row["slo"])}"'
            )
            lines.append(
                f"repro_slo_burn_rate_1h{{{labels}}} "
                f"{_format_value(row['burn_1h'])}"
            )
    lines.append("# TYPE repro_slo_breach_windows_total counter")
    lines.append(
        f"repro_slo_breach_windows_total {len(report['breach_windows'])}"
    )
    lines.append("# TYPE repro_slo_alerts_total counter")
    lines.append(f"repro_slo_alerts_total {len(report['alerts'])}")
    return lines
