#!/usr/bin/env python
"""Benchmark regression gate: compare a run against BENCH_baseline.json.

Raw wall-clock times are machine-dependent — a committed baseline of
absolute numbers would fail on every hardware change. Instead the gate
normalizes every benchmark by a *reference* benchmark measured in the
same run (the cold 100K-shard placement, a pure CPU-bound computation),
and compares these ratios. A ratio is stable across machines of different
speed, but moves immediately when one code path regresses relative to the
rest, which is what the gate is for.

Each gated row runs several rounds (``timed_best`` in
``benchmarks/conftest.py``: a fresh input and a collected heap per round,
the collector off while it runs), and each of its rounds is paired with a
yardstick round run just before it. The row's ratio is the *median of
the per-pair ratios*. A round on a shared box can run 20–50 % slow for
seconds at a time; a slow phase then stretches both rounds of a pair, so
it cancels in that pair's ratio, and the median drops the pairs it
split. The best-of-best ratio this replaces divided two bests taken at
different moments, and the yardstick's alone moved ±20 % between runs of
one tree. The baseline is the median ratio of five runs at one commit,
not one run's.

Usage:
    pytest benchmarks/test_sync_speed.py benchmarks/test_placement_speed.py \\
        benchmarks/test_metrics_hot_path.py --benchmark-only \\
        --benchmark-json=bench.json
    python benchmarks/check_regression.py bench.json            # gate
    python benchmarks/check_regression.py bench.json --update   # re-baseline

Exit status 1 when any benchmark's ratio is more than 25 % over its
baseline ratio. The complexity claims (an incremental round costs
O(changes), a quiet rebalance moves nothing) are call-count tests in
``tests/``, not ratios here.
"""

import argparse
import json
import sys
from pathlib import Path

#: CPU-bound yardstick all other benchmarks are expressed in units of.
REFERENCE = "test_place_100k_shards_under_two_seconds"

#: Allowed regression: +25% over the committed ratio.
TOLERANCE = 0.25

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def load_ratios(results_path):
    """Map benchmark name -> median of its per-pair ratios to the reference
    (``extra_info["ratio"]``, kept by ``timed_best``)."""
    data = json.loads(Path(results_path).read_text())
    return {
        bench["name"]: bench["extra_info"]["ratio"]
        for bench in data["benchmarks"]
        if "ratio" in bench.get("extra_info", {})
    }


def update_baseline(ratios, baseline_path):
    benchmarks = [
        {"name": name, "ratio": round(ratios[name], 6)}
        for name in sorted(ratios)
    ]
    baseline_path.write_text(
        json.dumps(
            {"reference": REFERENCE, "benchmarks": benchmarks}, indent=2
        )
        + "\n"
    )
    print(f"baseline updated: {baseline_path} ({len(benchmarks)} entries)")


def check(ratios, baseline_path):
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for entry in baseline["benchmarks"]:
        name = entry["name"]
        if name not in ratios:
            failures.append(f"{name}: missing from this run")
            continue
        allowed = entry["ratio"] * (1.0 + TOLERANCE)
        actual = ratios[name]
        verdict = "ok" if actual <= allowed else "REGRESSED"
        delta = (actual / entry["ratio"] - 1.0) * 100.0
        print(
            f"{name}: ratio {actual:.4f} "
            f"(baseline {entry['ratio']:.4f}, {delta:+.1f}%, "
            f"allowed <= {allowed:.4f}) {verdict}"
        )
        if actual > allowed:
            failures.append(
                f"{name}: ratio {actual:.4f} exceeds allowed {allowed:.4f} "
                f"(+{(actual / entry['ratio'] - 1.0) * 100:.0f}% vs baseline)"
            )
    known = {entry["name"] for entry in baseline["benchmarks"]}
    for name in sorted(set(ratios) - known):
        # A benchmark that runs but has no committed ratio is ungated —
        # failing loudly here is what forces new benchmarks to register
        # in the baseline instead of silently floating free.
        print(f"{name}: NOT IN BASELINE")
        failures.append(
            f"{name}: present in this run but missing from the baseline "
            "(register it with --update)"
        )
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="pytest-benchmark --benchmark-json file")
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help=f"baseline file (default: {BASELINE_PATH.name})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    args = parser.parse_args(argv)
    ratios = load_ratios(args.results)
    if args.update:
        update_baseline(ratios, args.baseline)
        return 0
    return check(ratios, args.baseline)


if __name__ == "__main__":
    sys.exit(main())
