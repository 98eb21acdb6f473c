"""Command-line entry point: ``python -m repro <command>``.

Commands:
    demo        run a small end-to-end deployment and print a health report
    timeline    run an incident scenario and print the merged event timeline
    trace       print the causal decision chain for one job
    slo         run the incident scenario and print the fleet SLO compliance table
    chaos       run a named chaos scenario and print the MTTR report
    growth      print the Fig. 1-style yearly growth table
    footprints  print the Fig. 5-style task footprint summary
    experiments list the benchmark harnesses and what they reproduce
"""

from __future__ import annotations

import argparse
import sys
from math import inf
from pathlib import Path


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum`` (exit 2 if not)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {text}")
        return value

    return parse


def _time(text: str) -> float:
    """argparse type: a finite, non-negative span or instant (exit 2 if not)."""
    value = float(text)
    if not 0.0 <= value < inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative: {text}")
    return value


def cmd_demo(args: argparse.Namespace) -> int:
    from repro import JobSpec, PlatformConfig, Turbine
    from repro.workloads import TrafficDriver

    platform = Turbine.create(
        num_hosts=args.hosts, seed=args.seed,
        config=PlatformConfig(num_shards=64),
    )
    platform.attach_scaler()
    platform.attach_health_reporter()
    if args.trace_out:
        platform.enable_tracing()
    if args.telemetry_out:
        platform.enable_instrumentation()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(args.jobs):
        platform.provision(
            JobSpec(job_id=f"demo/job-{index}", input_category=f"cat-{index}",
                    task_count=2, rate_per_thread_mb=2.0),
        )
        driver.add_source(f"cat-{index}", lambda t, r=1.0 + index: r)
    driver.start()
    platform.run_for(minutes=args.minutes)
    print(platform.health.check_once().render())
    if args.trace_out:
        platform.tracer.write_jsonl(args.trace_out)
        print(f"\n{len(platform.tracer.events)} trace events "
              f"written to {args.trace_out}")
    if args.telemetry_out:
        platform.telemetry.write_jsonl(args.telemetry_out)
        print(f"control-plane telemetry written to {args.telemetry_out}")
    return 0


def _incident_platform(seed: int, minutes: float, replication: bool = False):
    """A deterministic incident scenario shared by ``timeline``/``trace``.

    Three overlapping incidents, so every drill-down surface has
    something to show: ``demo/job-0`` is overloaded (the Auto Scaler
    scales it up), ``demo/job-1`` gets a poisoned oncall config at t=10min
    (three failed sync plans, then quarantine), and a host fails at
    t=20min (Shard Manager failover moves its shards). With
    ``replication`` the Job Store runs as a replica group and the leader
    is killed at t=25min (rejoining at t=30min), so the ``replication``
    timeline source has a failover to show (see docs/RUNBOOK.md).
    """
    from repro import JobSpec, PlatformConfig, Turbine
    from repro.jobs.configs import ConfigLevel
    from repro.workloads import TrafficDriver

    platform = Turbine.create(
        num_hosts=4, seed=seed,
        config=PlatformConfig(num_shards=32, containers_per_host=2),
    )
    platform.attach_scaler()
    platform.attach_health_reporter()
    platform.attach_slo()
    if replication:
        platform.attach_replication()
    platform.enable_tracing()
    platform.enable_instrumentation()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    rates = {"demo/job-0": 30.0, "demo/job-1": 2.0, "demo/job-2": 2.0}
    for index, (job_id, rate) in enumerate(sorted(rates.items())):
        platform.provision(
            JobSpec(job_id=job_id, input_category=f"cat-{index}",
                    task_count=2, rate_per_thread_mb=2.0,
                    task_count_limit=16),
        )
        driver.add_source(f"cat-{index}", lambda t, r=rate: r)
    driver.start()

    platform.run_for(minutes=min(10.0, minutes))
    if minutes > 10.0:
        # A poisoned oncall override: spec generation fails inside the
        # plan, and after three failed rounds the job is quarantined.
        platform.job_service.patch(
            "demo/job-1", ConfigLevel.ONCALL, {"task_count": -2}
        )
        platform.run_for(minutes=min(10.0, minutes - 10.0))
    if minutes > 20.0:
        platform.cluster.fail_host("host-1")
        if replication and minutes > 25.0:
            platform.run_for(minutes=5.0)
            crashed = platform.replication.crash("leader")
            platform.run_for(minutes=min(5.0, minutes - 25.0))
            if minutes > 30.0:
                platform.replication.restart(crashed)
                platform.run_for(minutes=minutes - 30.0)
        else:
            platform.run_for(minutes=minutes - 20.0)
    return platform


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.ops.timeline import IncidentTimeline

    platform = _incident_platform(
        args.seed, args.minutes, replication=args.replication
    )
    timeline = IncidentTimeline(platform)
    print(timeline.render(
        since=args.since,
        until=args.until,
        sources=args.source or None,
        kinds=args.kind or None,
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.critical_path import render_critical_path
    from repro.obs.trace import Tracer, render_chain_from_events

    if args.input:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except OSError as error:
            print(f"cannot read trace file: {error}", file=sys.stderr)
            return 1
        events = Tracer.load_jsonl(text)
    else:
        platform = _incident_platform(args.seed, args.minutes)
        events = list(platform.tracer.events)
    if args.critical_path:
        print(render_critical_path(events, args.job_id))
    else:
        print(render_chain_from_events(events, args.job_id))
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Fleet SLO compliance over the standard incident scenario."""
    platform = _incident_platform(args.seed, args.minutes)
    tracker = platform.slo
    print(f"fleet SLO compliance at t={platform.now:.0f}s "
          f"(seed {args.seed}):")
    print(tracker.render())
    if args.report_out:
        Path(args.report_out).write_text(
            tracker.to_json(), encoding="utf-8"
        )
        print(f"SLO report written to {args.report_out}")
    if args.prom_out:
        from repro.obs.prom import render_prometheus

        Path(args.prom_out).write_text(
            render_prometheus(
                telemetry=platform.telemetry, slo=tracker, deterministic=True
            ),
            encoding="utf-8",
        )
        print(f"Prometheus snapshot written to {args.prom_out}")
    return 0


def _write_exports(out_dir: str, exports) -> None:
    """Write each ``(file name, text)`` export under ``out_dir``."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in exports:
        (directory / name).write_text(text, encoding="utf-8")
        print(f"{name} written to {directory / name}")


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import all_scenarios, run_scenario

    if args.scenario == "list":
        for name, scenario in sorted(all_scenarios().items()):
            kinds = ", ".join(
                sorted({fault.kind for fault in scenario.faults})
            )
            bound = (
                f"mttr<={scenario.expected_max_mttr:g}s"
                if scenario.expected_max_mttr is not None
                else "no mttr bound"
            )
            print(f"  {name:36s} [{kinds}] ({bound})")
            print(f"  {'':36s} {scenario.description}")
        return 0
    try:
        result = run_scenario(
            args.scenario, seed=args.seed, replicas=args.replicas,
            control=args.control,
        )
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(result.render())
    if args.out_dir:
        _write_exports(args.out_dir, (
            ("fingerprint.json", result.fingerprint_json),
            ("timeline.txt", result.timeline_text + "\n"),
            ("slo.json", result.slo_report_json),
            ("telemetry.jsonl", result.telemetry_jsonl),
            ("trace.jsonl", result.trace_jsonl),
        ))
    if not result.converged:
        print("FAIL: scenario did not converge", file=sys.stderr)
        return 1
    if args.max_mttr is not None and (
        result.max_mttr is None or result.max_mttr > args.max_mttr
    ):
        print(
            f"FAIL: worst MTTR {result.max_mttr} exceeds "
            f"--max-mttr {args.max_mttr}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    from repro.analysis import Table
    from repro.workloads import ScubaFleet

    fleet = ScubaFleet(args.jobs, seed=args.seed)
    table = Table(["month", "traffic (MB/s)"])
    for month in range(13):
        table.add_row(month, fleet.total_rate_mb() * 2 ** (month / 12.0))
    print(table.render())
    return 0


def cmd_footprints(args: argparse.Namespace) -> int:
    from repro.analysis import format_cdf
    from repro.metrics.aggregate import fraction_below
    from repro.workloads import ScubaFleet

    fleet = ScubaFleet(args.jobs, seed=args.seed)
    cpus, memories = fleet.task_footprints()
    print(format_cdf("task CPU (cores)", cpus))
    print()
    print(format_cdf("task memory (GB)", memories))
    print(f"\ntasks < 1 core: {fraction_below(cpus, 1.0):.1%}  "
          f"tasks < 2 GB: {fraction_below(memories, 2.0):.2%}")
    return 0


def benchmark_index() -> list:
    """(filename, description) for every harness in ``benchmarks/``.

    Derived from each file's docstring so the listing can never drift
    from the directory contents again.
    """
    import ast

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        return []
    index = []
    for path in sorted(bench_dir.glob("test_*.py")):
        try:
            doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        except SyntaxError:
            doc = ""
        first_line = doc.strip().splitlines()[0] if doc.strip() else ""
        index.append((path.name, first_line or "(no description)"))
    return index


def cmd_experiments(args: argparse.Namespace) -> int:
    experiments = benchmark_index()
    if not experiments:
        print("benchmarks/ directory not found", file=sys.stderr)
        return 1
    for filename, description in experiments:
        print(f"  benchmarks/{filename:35s} {description}")
    print("\nrun with: pytest benchmarks/ --benchmark-only -s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Turbine reproduction (Mei et al., ICDE 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a small deployment")
    demo.add_argument("--hosts", type=_at_least(1), default=3)
    demo.add_argument("--jobs", type=_at_least(1), default=4)
    demo.add_argument("--minutes", type=_time, default=30.0)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--trace-out", metavar="FILE", default=None,
                      help="enable tracing and export trace JSONL here")
    demo.add_argument("--telemetry-out", metavar="FILE", default=None,
                      help="enable instrumentation and export telemetry "
                           "JSONL here")
    demo.set_defaults(func=cmd_demo)

    timeline = sub.add_parser(
        "timeline", help="incident scenario: merged operator timeline"
    )
    timeline.add_argument("--minutes", type=_time, default=40.0)
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument("--since", type=_time, default=0.0)
    timeline.add_argument("--until", type=_time, default=None)
    timeline.add_argument("--source", action="append", metavar="SOURCE",
                          help="only events from this source (repeatable, "
                               "exact match)")
    timeline.add_argument("--kind", action="append", metavar="KIND",
                          help="only events whose kind contains this "
                               "substring (repeatable)")
    timeline.add_argument("--replication", action="store_true",
                          help="run the Job Store as a replica group and "
                               "kill the leader at t=25min (adds the "
                               "'replication' timeline source)")
    timeline.set_defaults(func=cmd_timeline)

    trace = sub.add_parser(
        "trace", help="causal decision chain for one job"
    )
    trace.add_argument("job_id", help="job to reconstruct, e.g. demo/job-0")
    trace.add_argument("--minutes", type=_time, default=40.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--input", metavar="FILE", default=None,
                       help="read trace JSONL (from demo --trace-out) "
                            "instead of running the incident scenario")
    trace.add_argument("--critical-path", action="store_true",
                       help="show the slowest causal chain and which "
                            "layer cost the most time")
    trace.set_defaults(func=cmd_trace)

    slo = sub.add_parser(
        "slo", help="incident scenario: fleet SLO compliance table"
    )
    slo.add_argument("--minutes", type=_time, default=40.0)
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--report-out", metavar="FILE", default=None,
                     help="write the deterministic SLO report JSON here")
    slo.add_argument("--prom-out", metavar="FILE", default=None,
                     help="write a Prometheus text-format snapshot here")
    slo.set_defaults(func=cmd_slo)

    chaos = sub.add_parser(
        "chaos", help="run a chaos scenario and print the MTTR report"
    )
    chaos.add_argument("scenario",
                       help="scenario name, or 'list' to enumerate")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--replicas", type=_at_least(2), default=None,
                       help="run the Job Store as a replica group of this "
                            "size (replication scenarios default to 3)")
    chaos.add_argument("--max-mttr", type=_time, default=None,
                       help="exit 1 if any fault's recovery exceeds this "
                            "many seconds (or never happens)")
    chaos.add_argument("--control", action="store_true",
                       help="control arm: run with checkpoints, hot "
                            "standbys, slow-node detection and the "
                            "Capacity Manager all forced off (what the "
                            "fault costs without the feature)")
    chaos.add_argument("--out-dir", metavar="DIR", default=None,
                       help="write every deterministic export here: "
                            "fingerprint.json (canonical end state), "
                            "timeline.txt, slo.json (breach/budget "
                            "report), telemetry.jsonl, trace.jsonl")
    chaos.set_defaults(func=cmd_chaos)

    growth = sub.add_parser("growth", help="Fig. 1-style growth table")
    growth.add_argument("--jobs", type=_at_least(1), default=1000)
    growth.add_argument("--seed", type=int, default=0)
    growth.set_defaults(func=cmd_growth)

    footprints = sub.add_parser("footprints", help="Fig. 5-style CDFs")
    footprints.add_argument("--jobs", type=_at_least(1), default=5000)
    footprints.add_argument("--seed", type=int, default=0)
    footprints.set_defaults(func=cmd_footprints)

    experiments = sub.add_parser("experiments", help="list benchmarks")
    experiments.set_defaults(func=cmd_experiments)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
