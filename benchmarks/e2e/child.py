"""One run of one workload, in this fresh single-threaded process.

``python -m benchmarks.e2e.child --workload W --seed N --seconds S`` builds
the platform, warms it up (that is ``setup_s``), runs the measured phase
and prints one JSON object as its last line. The harness starts a new
child per run so no run inherits another's heap, caches or peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import statistics
from typing import Dict, List, Optional

from benchmarks.e2e import trace as tracing
from benchmarks.e2e.hostspeed import HostSpeed, NormalisedClock
from benchmarks.e2e.spec import DEFAULT_SEED, RUN_SECONDS
from benchmarks.e2e.workloads import SLICE_SIM_S, WORKLOADS, nearest_rank


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
    return digest.hexdigest()


def _safety(platform) -> List[str]:
    """Output checks beyond the operations: the paper's never-violated
    invariants and Scribe's "no reader ahead of the writer"."""
    from repro.chaos.convergence import ConvergenceChecker

    problems = []
    report = ConvergenceChecker(platform).check()
    if not report.safety_ok:
        problems.append(
            f"safety violated: duplicates={report.duplicates[:3]} "
            f"orphans={report.orphans[:3]}"
        )
    checkpoints = platform.scribe.checkpoints
    for job_id in platform.job_store.job_ids():
        category = platform.job_service.expected_config(job_id)["input"]["category"]
        for partition in platform.scribe.get_category(category).partitions:
            if checkpoints.get(job_id, partition.partition_id) > partition.head + 1e-6:
                problems.append(f"{job_id} committed past the head of "
                                f"{partition.partition_id}")
                break
    return problems


def _steady(platform) -> bool:
    """Set-up is over: placement done and the fleet is up (at least nine in
    ten spec'd tasks running).

    Not full convergence — set-up ends on a scaler round, and the jobs that
    round rescales are between their stop and their restart right then.
    """
    from repro.chaos.convergence import ConvergenceChecker

    report = ConvergenceChecker(platform).check()
    service = platform.task_service
    specs = sum(len(service.specs_of(job_id)) for job_id in service.job_ids())
    return (
        report.safety_ok and not report.unplaced_shards
        and len(report.missing) <= 0.1 * specs
    )


def run(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = RUN_SECONDS,
    traced: bool = False,
    setup_only: bool = False,
    scale: float = 1.0,
    slices: int = 1,
    processes: bool = False,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    from repro.chaos.runner import platform_fingerprint

    installation = tracing.Installation() if traced else None
    recorder = installation.recorder if installation else None
    if recorder is not None:
        recorder.enabled = False  # set-up is timed as a whole, not traced

    # ---- set-up: build + provision + warm-up to a steady state -----------
    # Every timing below is taken at nominal host speed (see hostspeed.py).
    speed = HostSpeed()
    setup_clock = NormalisedClock(speed)
    setup_clock.start()
    workload = WORKLOADS[name](
        seed, scale=scale, time_factor=seconds / RUN_SECONDS,
        slices=slices, processes=processes,
    )
    platform = workload.build()
    engine = platform.engine
    if recorder is not None:
        engine.instrumentation = recorder
    setup_clock.stop()
    while platform.now < workload.setup_sim_s:
        setup_clock.start()
        engine.run_until(min(workload.setup_sim_s, platform.now + 60.0))
        setup_clock.stop()
    setup_clock.start()
    setup_steady = _steady(platform)
    setup_clock.stop()
    setup_clock.close()
    setup_s = setup_clock.nominal_s

    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "scale": scale,
        "slices": slices,
        "processes": processes,
        #: Results made with an ad-hoc flag are never recorded or compared.
        "comparable": scale == 1.0 and slices == 1 and not processes,
        "sizes": workload.sizes(),
        "setup_s": setup_s,
        "raw_setup_s": setup_clock.raw_s,
        "setup_steady": setup_steady,
        "setup_sha256": _sha256(platform_fingerprint(platform)),
    }
    if setup_only:
        result["warnings"] = workload.warnings
        _close(platform)
        return result

    # ---- measured phase ---------------------------------------------------
    workload.begin(platform)
    ticks_per_minute = 60.0 / workload.step_interval
    end_sim = platform.now + workload.horizon
    next_minute = platform.now + 60.0
    task_steps = 0.0
    task_minutes = 0

    def between_slices() -> None:
        nonlocal next_minute, task_steps, task_minutes
        workload.on_slice(platform)
        if platform.now >= next_minute:
            next_minute += 60.0
            running = platform.running_task_count()
            task_steps += running * ticks_per_minute
            task_minutes += running

    measured_from = platform.now
    if recorder is not None:
        baseline = tracing.platform_counts(platform, measured_from)
        recorder.reset()
        recorder.enabled = True
    if recorder is None:
        run_slice, harness_work = engine.run_until, between_slices
    else:
        def run_slice(target: float) -> None:
            recorder.run_root(
                tracing.RUN_SLICE, lambda: engine.run_until(target), keep=False
            )

        def harness_work() -> None:
            recorder.run_root(tracing.HARNESS, between_slices, keep=False)

    clock = NormalisedClock(speed)
    while platform.now < end_sim:
        clock.start()
        run_slice(min(end_sim, platform.now + SLICE_SIM_S))
        clock.stop()
        clock.start()
        harness_work()
        clock.stop()
    clock.close()
    wall_s = clock.nominal_s
    if recorder is not None:
        recorder.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- outcomes and output checks -----------------------------------------
    sim = workload.finish(platform)
    rows = platform.slo.report(platform.now)["slos"]
    sim_hours = workload.horizon / 3600.0
    metrics: Dict[str, float] = {
        "setup_s": setup_s,
        "wall_s_per_sim_hour": wall_s / sim_hours,
        "task_steps_per_s": task_steps / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_ops_share": (
            sum(1 for _k, ok, _d in workload.ops if not ok) / len(workload.ops)
        ),
        "sim_slo_good_share": 1.0 - sum(r["bad_fraction"] for r in rows) / len(rows),
        "sim_task_hours": task_minutes / 60.0,
    }
    metrics.update(sim)
    by_kind: Dict[str, List[int]] = {}
    for kind, ok, _detail in workload.ops:
        entry = by_kind.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1
    # Pieces alternate: engine slice, between-slice harness work.
    slice_walls = clock.pieces[0::2]
    result.update({
        "wall_s": wall_s,
        "raw_wall_s": clock.raw_s,
        "cpu_share": clock.cpu_s / clock.raw_s,
        "host_slowness": statistics.median(clock.factors),
        "sim_s": workload.horizon,
        "task_steps": task_steps,
        "slice_count": len(slice_walls),
        "slice_wall_ms_p50": 1000.0 * nearest_rank(slice_walls, 0.50),
        "slice_wall_ms_p95": 1000.0 * nearest_rank(slice_walls, 0.95),
        "metrics": metrics,
        "ops": {
            "attempted": len(workload.ops),
            "failed": sum(entry[1] for entry in by_kind.values()),
            "by_kind": by_kind,
            "failures": [
                f"{kind}: {detail}" for kind, ok, detail in workload.ops if not ok
            ][:10],
        },
        "output_problems": _safety(platform)
        + ([] if setup_steady else ["set-up did not reach a steady state"]),
        "export_sha256": _sha256(
            platform_fingerprint(platform), platform.slo.to_json(platform.now)
        ),
        "warnings": list(workload.warnings),
    })

    if installation is not None:
        # Span times are raw seconds, so shares are taken of the raw wall;
        # the layer seconds are then brought to nominal host speed by the
        # run's overall ratio (shares between layers are unchanged).
        layers, warnings = tracing.layer_metrics(
            installation, platform, clock.raw_s, measured_from, baseline
        )
        nominal_over_raw = clock.nominal_s / clock.raw_s
        for key, value in layers.items():
            if key.endswith("_s") and value is not None:
                layers[key] = value * nominal_over_raw
        result["layers"] = layers
        result["warnings"] += warnings
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir, f"trace-{name}.json")
            with open(path, "w") as handle:
                json.dump({
                    "workload": name, "seed": seed, "raw_wall_s": clock.raw_s,
                    "nominal_over_raw": nominal_over_raw,
                    "layers": layers, **recorder.export(),
                }, handle)
            result["trace_file"] = path
        installation.uninstall()
    _close(platform)
    return result


def _close(platform) -> None:
    """Stop plane worker processes (``--processes`` only)."""
    if getattr(platform, "data_plane", None) is not None:
        platform.data_plane.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--slices", type=int, default=1)
    parser.add_argument("--processes", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    result = run(
        args.workload, seed=args.seed, seconds=args.seconds, traced=args.trace,
        setup_only=args.setup_only, scale=args.scale, slices=args.slices,
        processes=args.processes, trace_dir=args.trace_dir,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
