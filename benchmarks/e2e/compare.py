"""``compare A.json B.json``: did B stay within the benchmark's bounds of A?

Per workload and end-to-end metric: host metrics are compared as the
relative difference of medians against the metric's bound, and reported
``unresolved`` when the spread between either side's repeats is wider than
that bound; ``sim_*`` metrics, counts and ``export_sha256`` must match
exactly (same seed, same inputs, deterministic simulator).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from benchmarks.e2e.spec import END_TO_END, PER_LAYER

#: Row verdicts that make ``compare`` exit non-zero.
FAILING = ("REGRESSED", "MISMATCH", "MISSING")


def _spread(entry: Dict[str, object]) -> float:
    value = entry["value"]
    return (entry["q3"] - entry["q1"]) / value if value else 0.0


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Tuple[str, ...]]:
    """Rows of ``(workload, metric, a, b, change, bound, verdict)``."""
    rows: List[Tuple[str, ...]] = []
    for stamp in ("seed", "seconds"):
        if a.get(stamp) != b.get(stamp):
            rows.append(("*", stamp, str(a.get(stamp)), str(b.get(stamp)), "", "",
                         "MISMATCH"))
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        left, right = a["workloads"].get(name), b["workloads"].get(name)
        if left is None or right is None:
            rows.append((name, "*", "", "", "", "", "MISSING"))
            continue
        for metric in END_TO_END:
            if name not in metric.on:
                continue
            x, y = left["end_to_end"].get(metric.name), right["end_to_end"].get(metric.name)
            if x is None or y is None:
                rows.append((name, metric.name, "", "", "", "", "MISSING"))
                continue
            xv, yv = x["value"], y["value"]
            if metric.kind == "sim":
                rows.append((name, metric.name, repr(xv), repr(yv), "", "exact",
                             "match" if xv == yv else "MISMATCH"))
                continue
            worse = (yv - xv) / xv if metric.better == "lower" else (xv - yv) / xv
            if max(_spread(x), _spread(y)) > metric.bound:
                verdict = "unresolved"
            else:
                verdict = "REGRESSED" if worse > metric.bound else "ok"
            rows.append((name, metric.name, f"{xv:.4f}", f"{yv:.4f}",
                         f"{worse:+.1%} worse" if worse > 0 else f"{-worse:.1%} better",
                         f"{metric.bound:.0%}", verdict))
        exact = [("task_steps", left["task_steps"], right["task_steps"]),
                 ("ops.attempted", left["ops"]["attempted"], right["ops"]["attempted"]),
                 ("ops.failed", left["ops"]["failed"], right["ops"]["failed"]),
                 ("export_sha256", left["export_sha256"], right["export_sha256"])]
        if "per_layer" in left and "per_layer" in right:
            exact += [
                (layer.name, left["per_layer"][layer.name], right["per_layer"][layer.name])
                for layer in PER_LAYER if layer.unit == "count"
            ]
        for label, xv, yv in exact:
            shown = (str(xv)[:16], str(yv)[:16])
            rows.append((name, label, *shown, "", "exact",
                         "match" if xv == yv else "MISMATCH"))
    return rows


def render(rows: List[Tuple[str, ...]]) -> str:
    header = ("workload", "metric", "A", "B", "change", "bound", "verdict")
    table = [header] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    )


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = compare(a, b)
    print(render(rows))
    failing = [row for row in rows if row[-1] in FAILING]
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"\n{len(rows)} rows: {len(failing)} failing, {unresolved} unresolved")
    return 1 if failing else 0
