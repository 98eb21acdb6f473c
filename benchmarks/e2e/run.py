#!/usr/bin/env python3
"""Contract entry point (``BENCHMARK.json`` names this file).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON object as the last line of stdout:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 0`` the measured phase runs once, untraced, and ``setup_s`` is
the median over that child's set-up and two set-up-only children. With
``--trace 1`` an untraced and a traced child run (the per-layer table needs
both: slice timings, CPU share and the tracing overhead come from the
untraced one). The richer interface — repeats, compare, check, record — is
``python -m benchmarks.e2e``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Import as the package benchmarks.e2e from the checkout root, not as loose
# modules from this directory (trace.py would shadow the stdlib's).
sys.path[0] = str(ROOT)

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.spec import (  # noqa: E402
    DRIVER_END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e needs the program under src/repro", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    result = harness.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, traced=traced,
        setup_samples=1 if traced else harness.SETUP_SAMPLES,
        trace_dir=str(Path(__file__).resolve().parent / "out"),
    )
    for line in result["problems"] + result["ops"]["failures"]:
        print(f"FAILED CHECK: {line}", file=sys.stderr)
    for line in result["warnings"]:
        print(f"warning: {line}", file=sys.stderr)

    if traced:
        metrics = {}
        for layer in PER_LAYER:
            value = result["per_layer"][layer.name]
            if value is None:
                # The contract wants a number; the null is in the warnings.
                print(f"warning: {layer.name} is null, printed as 0", file=sys.stderr)
                value = 0
            metrics[layer.name] = {"value": value, "unit": layer.unit}
    else:
        metrics = {
            name: {
                "value": result["end_to_end"][name]["value"],
                "unit": result["end_to_end"][name]["unit"],
            }
            for name in DRIVER_END_TO_END
        }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["ops"]["attempted"],
        "failed": result["ops"]["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
