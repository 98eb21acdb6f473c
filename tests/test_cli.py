"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

import repro.__main__
from repro.__main__ import main
from repro.obs.telemetry import TIMER_LAYERS, timer_family


def test_experiments_lists_benches(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "test_fig8_backlog_recovery.py" in out
    assert "pytest benchmarks/" in out


def test_experiments_index_is_derived_from_benchmarks_dir(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    # Regression: the old hardcoded list omitted the stateful ablation.
    assert "test_ablation_stateful.py" in out
    bench_dir = Path(repro.__main__.__file__).resolve().parents[2] / "benchmarks"
    for path in sorted(bench_dir.glob("test_*.py")):
        assert path.name in out


def test_growth_prints_table(capsys):
    assert main(["growth", "--jobs", "50"]) == 0
    out = capsys.readouterr().out
    assert "month" in out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) >= 14  # header + 13 months


def test_footprints_prints_cdfs(capsys):
    assert main(["footprints", "--jobs", "200"]) == 0
    out = capsys.readouterr().out
    assert "task CPU (cores)" in out
    assert "tasks < 1 core" in out


def test_demo_runs_and_reports(capsys):
    assert main(["demo", "--minutes", "5", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "jobs managed" in out
    assert "tasks not running" in out


def test_demo_trace_out_writes_jsonl(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert main(
        ["demo", "--minutes", "5", "--jobs", "2",
         "--trace-out", str(trace_path)]
    ) == 0
    out = capsys.readouterr().out
    assert str(trace_path) in out
    lines = trace_path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert first["trace"].startswith("T")
    assert "source" in first and "kind" in first


def test_demo_telemetry_out_writes_jsonl(capsys, tmp_path):
    telemetry_path = tmp_path / "telemetry.jsonl"
    assert main(
        ["demo", "--minutes", "5", "--jobs", "2",
         "--telemetry-out", str(telemetry_path)]
    ) == 0
    lines = telemetry_path.read_text().splitlines()
    names = {json.loads(line)["name"] for line in lines}
    assert "syncer.rounds" in names
    assert "engine.events" in names
    # One layer row per layer whose timers fired.
    fired = {name[len("timer."):-len(".fires")] for name in names
             if name.startswith("timer.") and name.endswith(".fires")}
    layers = {name for name in names if name.startswith("layer.")}
    assert layers == {
        f"layer.{TIMER_LAYERS[timer_family(timer)]}.wall_ms" for timer in fired
    }
    assert {"layer.plane.wall_ms", "layer.heartbeat.wall_ms"} <= layers


def test_timeline_command_prints_story(capsys):
    assert main(["timeline", "--minutes", "25"]) == 0
    out = capsys.readouterr().out
    assert "state-syncer" in out
    assert "quarantine" in out
    assert "failover" in out


def test_timeline_filters_narrow_output(capsys):
    assert main(
        ["timeline", "--minutes", "25", "--source", "shard-manager",
         "--kind", "failover"]
    ) == 0
    out = capsys.readouterr().out
    body = [
        line for line in out.splitlines()
        if line.strip() and not line.startswith(("t (s)", "-"))
    ]
    assert body
    assert all("shard-manager" in line for line in body)


def test_timeline_kind_filter_matches_substring(capsys):
    assert main(
        ["timeline", "--minutes", "25", "--kind", "quarantine"]
    ) == 0
    out = capsys.readouterr().out
    body = [
        line for line in out.splitlines()
        if line.strip() and not line.startswith(("t (s)", "-"))
    ]
    assert body
    assert all("quarantine" in line for line in body)


def test_timeline_source_filter_is_exact(capsys):
    # "slo" must not match "state-syncer" or any other source by substring.
    assert main(
        ["timeline", "--minutes", "40", "--source", "slo"]
    ) == 0
    out = capsys.readouterr().out
    body = [
        line for line in out.splitlines()
        if line.strip() and not line.startswith(("t (s)", "-"))
    ]
    assert body, "the 40-minute incident must raise burn-rate alerts"
    assert all(line.split()[1] == "slo" for line in body)


def test_timeline_window_bounds_respected(capsys):
    assert main(
        ["timeline", "--minutes", "25", "--since", "600", "--until", "1200"]
    ) == 0
    out = capsys.readouterr().out
    times = [
        float(line.split()[0])
        for line in out.splitlines()
        if line.strip() and not line.startswith(("t (s)", "-"))
    ]
    assert times
    assert all(600.0 <= t <= 1200.0 for t in times)


def test_trace_command_prints_causal_chain(capsys):
    assert main(["trace", "demo/job-1", "--minutes", "25"]) == 0
    out = capsys.readouterr().out
    assert "job-store" in out
    assert "job-quarantined" in out


def test_trace_command_reads_exported_file(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert main(
        ["demo", "--minutes", "20", "--jobs", "2",
         "--trace-out", str(trace_path)]
    ) == 0
    capsys.readouterr()
    assert main(["trace", "demo/job-0", "--input", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "trace T" in out


def test_trace_unknown_job_reports_empty(capsys):
    assert main(["trace", "no/such-job", "--minutes", "10"]) == 0
    out = capsys.readouterr().out
    assert "no trace events" in out


def test_trace_critical_path_reports_layer_costs(capsys):
    assert main(
        ["trace", "demo/job-0", "--minutes", "25", "--critical-path"]
    ) == 0
    out = capsys.readouterr().out
    assert "slowest causal chain for demo/job-0" in out
    assert "end to end" in out
    assert "layer costs" in out
    assert "->" in out  # at least one layer edge row


def test_trace_critical_path_reads_exported_file(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert main(
        ["demo", "--minutes", "20", "--jobs", "2",
         "--trace-out", str(trace_path)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["trace", "demo/job-0", "--input", str(trace_path),
         "--critical-path"]
    ) == 0
    out = capsys.readouterr().out
    assert "slowest causal chain" in out


def test_slo_command_prints_compliance_table(capsys):
    assert main(["slo", "--minutes", "25"]) == 0
    out = capsys.readouterr().out
    assert "fleet SLO compliance" in out
    assert "budget burned" in out
    assert "demo/job-0" in out
    assert "breach windows:" in out


def test_slo_report_out_writes_deterministic_json(capsys, tmp_path):
    first = tmp_path / "slo-a.json"
    second = tmp_path / "slo-b.json"
    assert main(["slo", "--minutes", "25",
                 "--report-out", str(first)]) == 0
    assert main(["slo", "--minutes", "25",
                 "--report-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["slos"]
    row = report["slos"][0]
    assert {"job", "slo", "target", "budget_burned",
            "burn_1h", "status"} <= set(row)


def test_slo_prom_out_writes_exposition(capsys, tmp_path):
    prom_path = tmp_path / "metrics.prom"
    assert main(["slo", "--minutes", "25",
                 "--prom-out", str(prom_path)]) == 0
    text = prom_path.read_text()
    assert "# TYPE repro_slo_budget_burned gauge" in text
    assert 'repro_slo_budget_burned{job="demo/job-0",slo="lag"}' in text
    # The deterministic telemetry instruments ride along (docs/RUNBOOK.md).
    assert "repro_slo_evals_total" in text
    assert any(
        line.startswith("repro_resilience_") and "_calls_total" in line
        for line in text.splitlines()
    )


def test_chaos_list_enumerates_scenarios(capsys):
    assert main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("job-store-outage", "syncer-crash", "shard-manager-outage",
                 "task-service-staleness", "metric-gap",
                 "scribe-partition-loss", "checkpoint-restore-vs-cold-restart",
                 "standby-takeover", "gray-node-drain"):
        assert name in out


def test_chaos_list_renders_fault_kinds_and_mttr_bound(capsys):
    assert main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    # Each entry shows its fault kinds in brackets and its expected MTTR
    # bound (or says it has none) next to the name.
    assert "[host-failure] (mttr<=5s)" in out
    assert "[checkpoint-wipe] (mttr<=90s)" in out
    assert "[slow-node] (mttr<=60s)" in out
    assert "no mttr bound" in out


def test_chaos_control_arm_disables_resiliency_features(capsys):
    # The control arm of the takeover drill pays the full reboot clock
    # but still converges well inside a generous bound.
    assert main(["chaos", "standby-takeover", "--seed", "7",
                 "--control", "--max-mttr", "120"]) == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    # And the feature arm must beat its own 5 s acceptance bound.
    assert main(["chaos", "standby-takeover", "--seed", "7",
                 "--max-mttr", "5"]) == 0


def test_chaos_runs_scenario_and_reports_mttr(capsys):
    assert main(["chaos", "job-store-outage", "--seed", "7",
                 "--max-mttr", "180"]) == 0
    out = capsys.readouterr().out
    assert "mttr (s)" in out
    assert "converged: yes" in out


def test_chaos_max_mttr_bound_fails_when_exceeded(capsys):
    assert main(["chaos", "job-store-outage", "--seed", "7",
                 "--max-mttr", "1"]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err


def test_chaos_unknown_scenario_errors(capsys):
    assert main(["chaos", "not-a-scenario"]) == 2
    assert "unknown chaos scenario" in capsys.readouterr().err


CHAOS_EXPORTS = (
    "fingerprint.json", "timeline.txt", "slo.json", "telemetry.jsonl",
    "trace.jsonl",
)


def assert_per_file_flags_are_gone(command):
    """``--out-dir`` replaced the per-file flags: argparse rejects each."""
    for flag in ("--fingerprint-out", "--timeline-out", "--slo-out",
                 "--telemetry-out", "--trace-out"):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, flag, "x"])
        assert exit_info.value.code == 2, flag


def test_chaos_exports_timeline_telemetry_fingerprint_and_trace(
    capsys, tmp_path
):
    out_dir = tmp_path / "nested" / "drill"  # created on demand
    assert main(["chaos", "metric-gap", "--seed", "3",
                 "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(CHAOS_EXPORTS)
    assert "chaos" in (out_dir / "timeline.txt").read_text()
    lines = (out_dir / "telemetry.jsonl").read_text().splitlines()
    assert lines
    assert any("chaos.faults_injected" in json.loads(line).get("name", "")
               for line in lines)
    fingerprint = json.loads((out_dir / "fingerprint.json").read_text())
    assert set(fingerprint) == {"now", "checkpoints", "managers", "heads"}
    assert "chaos/job-0" in fingerprint["checkpoints"]
    # The trace export is what ``repro trace --input`` replays.
    assert main(["trace", "chaos/job-0",
                 "--input", str(out_dir / "trace.jsonl")]) == 0
    # Same seed, second run: every export byte-identical.
    again = tmp_path / "again"
    assert main(["chaos", "metric-gap", "--seed", "3",
                 "--out-dir", str(again)]) == 0
    for name in CHAOS_EXPORTS:
        assert (again / name).read_bytes() == (out_dir / name).read_bytes()
    assert_per_file_flags_are_gone(["chaos", "metric-gap"])


def test_chaos_exports_slo_report(capsys, tmp_path):
    assert main(["chaos", "metric-gap", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "slo impact:" in out
    report = json.loads((tmp_path / "slo.json").read_text())
    assert "slos" in report and "breach_windows" in report
    assert report["slos"], "chaos platform must track default SLOs"


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


@pytest.fixture
def ran(monkeypatch):
    """Every command function replaced by a recorder of its parsed args,
    so a test sees what parsing let through without running anything."""
    calls = []
    for name in ("cmd_demo", "cmd_timeline", "cmd_trace", "cmd_slo",
                 "cmd_chaos", "cmd_growth", "cmd_footprints"):
        monkeypatch.setattr(repro.__main__, name, calls.append)
    return calls


@pytest.mark.parametrize("argv", [
    ["demo", "--minutes", "nan"],
    ["demo", "--minutes", "-5"],
    ["demo", "--minutes", "inf"],
    ["demo", "--hosts", "0"],
    ["demo", "--jobs", "0"],
    ["timeline", "--since", "nan"],
    ["timeline", "--until", "-1"],
    ["trace", "demo/job-0", "--minutes", "inf"],
    ["slo", "--minutes", "-1"],
    ["chaos", "syncer-crash", "--replicas", "0"],
    ["chaos", "syncer-crash", "--max-mttr", "nan"],
    ["growth", "--jobs", "-3"],
    ["footprints", "--jobs", "0"],
])
def test_an_out_of_range_number_exits_2_before_anything_runs(argv, ran, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert ran == []
    assert "must be" in capsys.readouterr().err


def test_the_range_edges_are_accepted(ran):
    main(["demo", "--hosts", "1", "--jobs", "1", "--minutes", "0"])
    main(["chaos", "syncer-crash", "--replicas", "2", "--max-mttr", "0"])
    demo, chaos = ran
    assert (demo.hosts, demo.jobs, demo.minutes) == (1, 1, 0.0)
    assert (chaos.replicas, chaos.max_mttr) == (2, 0.0)
