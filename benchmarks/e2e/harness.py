"""Parent side of the benchmark: children, medians, checks, machine stamp.

Every run is a fresh ``benchmarks.e2e.child`` process (one thread,
``PYTHONHASHSEED=0``). End-to-end metrics come only from untraced
children; a separate traced child fills the per-layer table and the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform as host_platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.spec import (
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER_NAMES,
    RUN_SECONDS,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Set-up samples per run (``setup_s`` is their median): the measuring
#: children's own set-up plus as many set-up-only children as it takes.
SETUP_SAMPLES = 3

#: A child that has not finished by then is killed (contract: 180 s/run).
CHILD_TIMEOUT_S = 170.0

#: ``--record`` refuses a run whose child was off-CPU more than this.
MIN_CPU_SHARE = 0.9

#: ``tasks.runtime.plan_calls`` (traced) must agree with the untraced
#: task-step count this closely.
PLAN_CALLS_TOLERANCE = 0.01


def machine_stamp() -> Dict[str, object]:
    """Where the numbers were taken (goes into every result)."""
    try:
        affinity: Optional[List[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": host_platform.python_version(),
        "implementation": host_platform.python_implementation(),
        "platform": host_platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def spawn_child(args: Sequence[str]) -> Dict[str, object]:
    """Run one child to completion and return the object it printed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", *args],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median and quartiles of a timing, with its sample count."""
    values = list(samples)
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "samples": values,
    }


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = RUN_SECONDS,
    repeats: int = 1,
    traced: bool = False,
    setup_samples: int = SETUP_SAMPLES,
    scale: float = 1.0,
    slices: int = 1,
    processes: bool = False,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """All children of one workload, folded into one result."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
              "--scale", repr(scale), "--slices", str(slices)]
    if processes:
        common.append("--processes")
    setups = [
        spawn_child(common + ["--setup-only"])
        for _ in range(max(0, setup_samples - repeats))
    ]
    runs = [spawn_child(common) for _ in range(repeats)]
    trace_run = None
    if traced:
        trace_run = spawn_child(
            common + ["--trace"] + (["--trace-dir", trace_dir] if trace_dir else [])
        )

    first = runs[0]
    problems: List[str] = []
    warnings: List[str] = []
    children = setups + runs + ([trace_run] if trace_run else [])
    for child in children:
        for warning in child.get("warnings", ()):
            if warning not in warnings:
                warnings.append(warning)
        for problem in child.get("output_problems", ()):
            problems.append(problem)
    if len({child["setup_sha256"] for child in children}) != 1:
        problems.append("post-set-up state differs between children of one seed")
    measured = runs + ([trace_run] if trace_run else [])
    if len({child["export_sha256"] for child in measured}) != 1:
        problems.append("export_sha256 differs between runs of one seed")

    end_to_end: Dict[str, Dict[str, object]] = {}
    for metric in END_TO_END:
        if name not in metric.on:
            continue
        if metric.name == "setup_s":
            samples = [child["setup_s"] for child in setups + runs]
        elif metric.name not in first["metrics"]:
            problems.append(f"{metric.name} was not measured")
            continue
        else:
            samples = [run["metrics"][metric.name] for run in runs]
        entry = summarize(samples)
        entry["unit"] = metric.unit
        if metric.kind == "sim" and len(set(samples)) != 1:
            problems.append(f"{metric.name} differs between runs of one seed")
        end_to_end[metric.name] = entry
    if len({run["task_steps"] for run in measured}) != 1:
        problems.append("task-step count differs between runs of one seed")

    cpu_share = statistics.median(run["cpu_share"] for run in runs)
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "comparable": bool(first["comparable"]),
        "sizes": first["sizes"],
        "end_to_end": end_to_end,
        "ops": first["ops"],
        "task_steps": first["task_steps"],
        "export_sha256": first["export_sha256"],
        "wall_s": summarize([run["wall_s"] for run in runs]),
        "raw_wall_s": summarize([run["raw_wall_s"] for run in runs]),
        "host_slowness": statistics.median(run["host_slowness"] for run in runs),
        "cpu_share": cpu_share,
        "problems": problems,
        "warnings": warnings,
    }

    if trace_run is not None:
        layers: Dict[str, Optional[float]] = dict(trace_run["layers"])
        untraced_wall = statistics.median(run["wall_s"] for run in runs)
        layers["sim.engine.slice_wall_ms_p50"] = statistics.median(
            run["slice_wall_ms_p50"] for run in runs)
        layers["sim.engine.slice_wall_ms_p95"] = statistics.median(
            run["slice_wall_ms_p95"] for run in runs)
        layers["host.cpu_share"] = cpu_share
        layers["host.trace_overhead_share"] = (
            (trace_run["wall_s"] - untraced_wall) / untraced_wall
        )
        result["per_layer"] = {name_: layers.get(name_) for name_ in PER_LAYER_NAMES}
        result["slice_count"] = first["slice_count"]
        result["traced_wall_s"] = trace_run["wall_s"]
        result["trace_file"] = trace_run.get("trace_file")
        for name_ in PER_LAYER_NAMES:
            if name_ not in layers:
                problems.append(f"{name_} missing from the traced run")
        plan_calls = layers.get("tasks.runtime.plan_calls")
        steps = first["task_steps"]
        if plan_calls is not None and abs(plan_calls - steps) > PLAN_CALLS_TOLERANCE * steps:
            problems.append(
                f"tasks.runtime.plan_calls {plan_calls} vs {steps} task-steps: "
                f"more than {PLAN_CALLS_TOLERANCE:.0%} apart"
            )
    return result
