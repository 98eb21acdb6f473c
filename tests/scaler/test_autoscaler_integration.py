"""End-to-end Auto Scaler tests on a live simulated platform."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.scaler import AutoScalerConfig
from repro.scaler.plan_generator import Action


def scaled_platform(num_hosts=3, downscale_after=1800.0, seed=11, **scaler_kw):
    config = PlatformConfig(num_shards=32, containers_per_host=2)
    platform = Turbine.create(num_hosts=num_hosts, seed=seed, config=config)
    platform.attach_scaler(
        AutoScalerConfig(downscale_after=downscale_after, **scaler_kw)
    )
    platform.start()
    return platform


def feed(platform, category, rate_mb, minutes):
    """Append ``rate_mb`` MB/s of traffic for ``minutes`` minutes."""
    for __ in range(int(minutes)):
        platform.scribe.get_category(category).append(rate_mb * 60.0)
        platform.run_for(minutes=1)


class TestUpscaling:
    def test_backlog_triggers_upscale(self):
        platform = scaled_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=2.0, task_count_limit=32),
        )
        platform.run_for(minutes=3)
        # 30 MB/s input >> 2 tasks * 2 MB/s capacity → lag grows.
        feed(platform, "cat", rate_mb=30.0, minutes=20)
        config = platform.job_service.expected_config("job")
        capacity = (
            config["task_count"] * config["threads_per_task"] * 2.0
        )
        assert capacity >= 30.0, f"scaled capacity {capacity} must cover input"
        upscales = [
            action for action in platform.scaler.actions
            if action.action in (
                Action.UPSCALE_HORIZONTAL, Action.UPSCALE_VERTICAL
            )
        ]
        assert upscales

    def test_backlog_drains_after_upscale(self):
        platform = scaled_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=5.0, task_count_limit=32,
                    slo=__import__("repro.types", fromlist=["SLO"]).SLO(
                        max_lag_seconds=90.0, recovery_seconds=600.0)),
        )
        platform.run_for(minutes=3)
        platform.scribe.get_category("cat").append(3000.0)  # a big dump
        feed(platform, "cat", rate_mb=5.0, minutes=40)
        assert platform.job_lag_mb("job") < 300.0, "backlog mostly drained"

    def test_task_count_limit_respected(self):
        platform = scaled_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=1.0, task_count_limit=8),
        )
        platform.run_for(minutes=3)
        feed(platform, "cat", rate_mb=100.0, minutes=20)
        assert platform.job_service.expected_config("job")["task_count"] <= 8

    def test_oncall_limit_lift_unlocks_scaling(self):
        """The Fig. 8 scenario: the operator lifts the limit and the
        scaler continues upward."""
        from repro.jobs import ConfigLevel

        platform = scaled_platform()
        # The category has plenty of partitions; only the task-count
        # limit holds the job back (the Fig. 8 situation).
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=1.0, task_count_limit=8),
            partitions=128,
        )
        platform.run_for(minutes=3)
        feed(platform, "cat", rate_mb=50.0, minutes=15)
        assert platform.job_service.expected_config("job")["task_count"] <= 8
        platform.job_service.patch(
            "job", ConfigLevel.ONCALL, {"task_count_limit": 128}
        )
        feed(platform, "cat", rate_mb=50.0, minutes=15)
        assert platform.job_service.expected_config("job")["task_count"] > 8


class TestOom:
    def test_oom_bumps_memory(self):
        platform = scaled_platform()
        # 0.45 GB reservation but the buffer model needs more at high rate.
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=50.0,
                    resources_per_task=__import__(
                        "repro.cluster", fromlist=["ResourceVector"]
                    ).ResourceVector(cpu=1.0, memory_gb=0.45)),
        )
        platform.run_for(minutes=3)
        feed(platform, "cat", rate_mb=60.0, minutes=15)
        assert any(
            manager.oom_events > 0
            for manager in platform.task_managers.values()
        ), "the tight reservation must OOM under load"
        memory = platform.job_service.expected_config("job")["resources"][
            "memory_gb"
        ]
        assert memory > 0.45, "scaler must raise the reservation"


class TestDownscaling:
    def test_quiet_job_downscales(self):
        platform = scaled_platform(downscale_after=1200.0)
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=16,
                    rate_per_thread_mb=2.0),
        )
        platform.run_for(minutes=3)
        feed(platform, "cat", rate_mb=4.0, minutes=45)
        final = platform.job_service.expected_config("job")["task_count"]
        assert final < 16, "16 tasks for 4 MB/s at P=2 is over-provisioned"
        assert final >= 2, "never below the floor ceil(4/2)"

    def test_busy_job_never_downscaled(self):
        platform = scaled_platform(downscale_after=600.0)
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=4,
                    rate_per_thread_mb=2.0),
        )
        platform.run_for(minutes=3)
        feed(platform, "cat", rate_mb=7.9, minutes=30)
        final = platform.job_service.expected_config("job")["task_count"]
        assert final >= 4, "job running near capacity must not shrink"


class TestUntriaged:
    def test_lag_without_resource_cause_alerts(self):
        """A job that lags despite ample capacity (a simulated dependency
        failure: tasks stopped via direct kill) produces an untriaged
        report, not a scaling action."""
        platform = scaled_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=8,
                    rate_per_thread_mb=10.0),
        )
        platform.run_for(minutes=3)
        # Stop the data plane behind the control plane's back: lag grows
        # although the estimates say capacity is plentiful.
        for manager in platform.task_managers.values():
            for task in manager.tasks.values():
                task.stop()
        feed(platform, "cat", rate_mb=4.0, minutes=15)
        assert platform.scaler.untriaged, "must report an untriaged problem"
        horizontal = [
            action for action in platform.scaler.actions
            if action.action == Action.UPSCALE_HORIZONTAL
        ]
        assert not horizontal, "untriaged lag must not add tasks"


class TestPHint:
    """An ONCALL patch can set a type-valid ``rate_per_thread_mb`` of 0 that
    ``JobSpec`` would reject. If it lands before the scaler first sees the
    job, the scaler must refuse that hint for that job alone: no P is
    adopted for it, its round ends UNTRIAGED naming the hint, and every
    other job is still evaluated — the round (and the engine) go on."""

    def test_a_zero_hint_is_refused_for_its_job_only(self):
        from repro.jobs import ConfigLevel

        platform = Turbine.create(
            num_hosts=3, seed=11,
            config=PlatformConfig(num_shards=32, containers_per_host=2),
        )
        platform.attach_scaler()
        platform.start()
        for index in range(3):
            platform.provision(
                JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}")
            )
        platform.job_service.patch(
            "job-1", ConfigLevel.ONCALL, {"perf": {"rate_per_thread_mb": 0.0}}
        )
        platform.run_for(minutes=10)  # an unguarded estimate raised at t = 240 s

        scaler = platform.scaler
        assert platform.now == 600.0
        assert scaler.untriaged, "the refused hint must be reported"
        assert {record.job_id for record in scaler.untriaged} == {"job-1"}
        assert all(
            "rate_per_thread_mb=0.0" in record.reason
            for record in scaler.untriaged
        )
        # One report per round the job was evaluated in, none adopted P.
        assert len(scaler.untriaged) == len({r.time for r in scaler.untriaged})
        assert set(scaler.analyzer.held_jobs()) == {"job-0", "job-2"}
        assert scaler.analyzer.rate_per_thread("job-1", 0.0) is None

    @pytest.mark.parametrize("hint", [0.0, -1.0, float("nan")])
    def test_the_analyzer_never_adopts_a_non_positive_p(self, hint):
        from repro.metrics import MetricStore
        from repro.scaler.patterns import PatternAnalyzer

        analyzer = PatternAnalyzer(MetricStore())
        assert analyzer.rate_per_thread("job", hint) is None
        assert list(analyzer.held_jobs()) == []
        # A job that already has an estimate keeps it, whatever the hint.
        assert analyzer.rate_per_thread("job", 3.0) == 3.0
        assert analyzer.rate_per_thread("job", hint) == 3.0
