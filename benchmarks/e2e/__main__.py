"""``PYTHONPATH=src python -m benchmarks.e2e {run,compare,check}``.

run      every workload (or ``--workload`` ones): prints each end-to-end
         metric by name with its unit, median, quartiles and sample count;
         ``--trace`` adds the per-layer table and writes
         ``trace-<workload>.json``; exits non-zero if an output check fails.
compare  two result files against the benchmark's own bounds.
check    every workload at ``--scale 0.05``, twice, in under 30 s.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from benchmarks.e2e import compare as comparing
from benchmarks.e2e import harness
from benchmarks.e2e.spec import (
    DEFAULT_SEED,
    DRIVER_END_TO_END,
    END_TO_END,
    END_TO_END_BY_NAME,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
)

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
CHECK_SCALE = 0.05
CHECK_BUDGET_S = 30.0


def _print_workload(result: Dict[str, object]) -> None:
    print(f"\n== {result['workload']}  (seed {result['seed']}, "
          f"sizes {json.dumps(result['sizes'])})")
    for name, entry in result["end_to_end"].items():
        print(f"  {name:<26} {entry['value']:>14.6g} {entry['unit']:<8} "
              f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n={entry['n']}")
    ops = result["ops"]
    print(f"  operations: {ops['attempted']} attempted, {ops['failed']} failed "
          f"{json.dumps(ops['by_kind'])}")
    print(f"  task_steps {result['task_steps']:.0f}   measured wall "
          f"{result['wall_s']['value']:.3f} s (n={result['wall_s']['n']})   "
          f"cpu share {result['cpu_share']:.3f}   export_sha256 "
          f"{result['export_sha256'][:16]}")
    if "per_layer" in result:
        print(f"  per-layer (traced wall {result['traced_wall_s']:.3f} s, "
              f"{result['slice_count']} slices, trace {result['trace_file']}):")
        for layer in PER_LAYER:
            value = result["per_layer"][layer.name]
            if value is None:
                shown = "null"
            else:
                shown = f"{value:.0f}" if layer.unit == "count" else f"{value:.6g}"
            print(f"    {layer.name:<40} {shown:>14} {layer.unit}")
    for line in ops["failures"]:
        print(f"  FAILED OP: {line}")
    for line in result["problems"]:
        print(f"  FAILED CHECK: {line}")
    for line in result["warnings"]:
        print(f"  warning: {line}")


def _refuse_record(results: Dict[str, Dict[str, object]]) -> List[str]:
    """Why this run may not become the recorded baseline (empty = it may)."""
    reasons = []
    if sorted(results) != sorted(WORKLOAD_NAMES):
        reasons.append("a baseline holds all four workloads")
    for name, result in results.items():
        if not result["comparable"]:
            reasons.append(f"{name}: made with --scale/--slices/--processes "
                           '("comparable": false)')
        if result["cpu_share"] < harness.MIN_CPU_SHARE:
            reasons.append(
                f"{name}: host.cpu_share {result['cpu_share']:.3f} < "
                f"{harness.MIN_CPU_SHARE} — the box was disturbed, run again"
            )
        if result["problems"] or result["ops"]["failed"]:
            reasons.append(f"{name}: an output check or operation failed")
    return reasons


def cmd_run(args) -> int:
    names = args.workload or list(WORKLOAD_NAMES)
    if args.slices != 1 or args.processes:
        # The sliced plane is only rerun on the workload it is meant to help.
        names = ["fleet-steady"]
    stamp = harness.machine_stamp()
    results = {}
    for name in names:
        results[name] = harness.run_workload(
            name, seed=args.seed, seconds=args.seconds, repeats=args.repeats,
            traced=args.trace, scale=args.scale, slices=args.slices,
            processes=args.processes, trace_dir=args.trace_dir,
        )
        _print_workload(results[name])
    document = {
        "schema": 1,
        "machine": stamp,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "comparable": all(result["comparable"] for result in results.values()),
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    failed = any(r["problems"] or r["ops"]["failed"] for r in results.values())
    if args.record:
        reasons = _refuse_record(results)
        if reasons:
            print("\n--record refused:\n  " + "\n  ".join(reasons))
            return 1
        BASELINE.write_text(json.dumps(document, indent=1) + "\n")
        print(f"\nrecorded {BASELINE}")
    return 1 if failed else 0


def _check_benchmark_json() -> List[str]:
    """``BENCHMARK.json`` must say what the spec tables say."""
    path = harness.REPO_ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    declared = json.loads(path.read_text())
    problems = []
    if declared.get("run_seconds") != RUN_SECONDS:
        problems.append("BENCHMARK.json run_seconds differs from spec.RUN_SECONDS")
    if [w["name"] for w in declared.get("workloads", ())] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from spec.WORKLOAD_NAMES")
    expected = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in (END_TO_END_BY_NAME[name] for name in DRIVER_END_TO_END)
    ]
    if declared.get("end_to_end") != expected:
        problems.append("BENCHMARK.json end_to_end differs from spec.END_TO_END")
    layers = [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    if declared.get("per_layer") != layers:
        problems.append("BENCHMARK.json per_layer differs from spec.PER_LAYER")
    return problems


def cmd_check(_args) -> int:
    started = perf_counter()
    problems = _check_benchmark_json()
    for name in WORKLOAD_NAMES:
        result = harness.run_workload(
            name, scale=CHECK_SCALE, repeats=2, setup_samples=2,
        )
        for metric in END_TO_END:
            if name not in metric.on:
                continue
            entry = result["end_to_end"].get(metric.name)
            if entry is None or entry["unit"] != metric.unit:
                problems.append(f"{name}: {metric.name} [{metric.unit}] missing")
        if result["end_to_end"]["failed_ops_share"]["value"] != 0:
            problems.append(f"{name}: failed operations {result['ops']['failures']}")
        problems += [f"{name}: {line}" for line in result["problems"]]
        print(f"{name}: {result['ops']['attempted']} ops, "
              f"{result['task_steps']:.0f} task-steps, digest "
              f"{result['export_sha256'][:16]} (x2 identical)")
    elapsed = perf_counter() - started
    if elapsed > CHECK_BUDGET_S:
        problems.append(f"check took {elapsed:.1f} s, budget {CHECK_BUDGET_S:.0f} s")
    for line in problems:
        print(f"FAILED CHECK: {line}")
    print(f"check {'FAILED' if problems else 'ok'} in {elapsed:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="only this workload (repeatable; default: all four)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="scales the simulated horizon from the sized one")
    run.add_argument("--repeats", type=int, default=1,
                     help="untraced runs per workload (median and quartiles)")
    run.add_argument("--trace", action="store_true",
                     help="add a traced run: the per-layer table and trace files")
    run.add_argument("--trace-dir", default=str(HERE / "out"))
    run.add_argument("--scale", type=float, default=1.0,
                     help="ad hoc: multiply every fleet size (never recorded)")
    run.add_argument("--slices", type=int, default=1,
                     help="ad hoc: fleet-steady on N plane slices (never recorded)")
    run.add_argument("--processes", action="store_true",
                     help="ad hoc: fork worker processes for the slices")
    run.add_argument("--out", help="write the full result as JSON")
    run.add_argument("--record", action="store_true",
                     help=f"make this run the recorded baseline ({BASELINE.name})")
    run.set_defaults(handler=cmd_run)

    cmp_ = commands.add_parser("compare", help="compare two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(handler=lambda args: comparing.main(args.a, args.b))

    check = commands.add_parser("check", help="fast self-check of the benchmark")
    check.set_defaults(handler=cmd_check)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
