"""Ablation — the preactive pattern analyzer's historical pruning.

"These repeated patterns are leveraged to ensure that the scaler does not
keep changing resource allocations too frequently." (paper section V-C).

Scenario: a strongly diurnal job. Without the 14-day history check, the
scaler downsizes the job during the nightly trough and has to scale it
back every morning — flapping allocations and risking morning SLO
violations. With the history check, the trough-time downscale is vetoed
(the same clock window in prior days saw peak traffic the reduced count
could not sustain), so allocations stay stable.
"""

from repro import JobSpec
from repro.analysis import Table
from repro.scaler import AutoScalerConfig
from repro.scaler.plan_generator import Action
from repro.workloads import DiurnalPattern, TrafficDriver

from benchmarks.simharness import build_platform

DAY = 86400.0


def run_scaler(pattern_history: bool):
    platform = build_platform(
        num_hosts=4, seed=88, num_shards=64, step_interval=30.0,
        stats_interval=300.0,
        with_scaler=True,
        scaler_config=AutoScalerConfig(
            interval=600.0,
            downscale_after=4 * 3600.0,
            pattern_history=pattern_history,
            # The validation window must reach from the nightly trough to
            # the daily peak, else history has nothing to veto with.
            pattern_validate_hours=12.0,
        ),
    )
    # Strong diurnal: 8 MB/s mean, 4.8-11.2 swing; provisioned for peak.
    pattern = DiurnalPattern(
        8.0, amplitude=0.4, rng=platform.engine.rng.fork("wl"),
    )
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=7,
                rate_per_thread_mb=2.0, task_count_limit=32),
        partitions=64,
    )
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    driver.add_source("cat", pattern)
    driver.start()

    platform.run_for(days=3)

    resize_actions = [
        action for action in platform.scaler.actions
        if action.action in (Action.DOWNSCALE, Action.UPSCALE_HORIZONTAL,
                             Action.UPSCALE_VERTICAL)
    ]
    lag_series = platform.metrics.row("job")["time_lagged"]
    violations = sum(
        1 for __, value in lag_series.all_points() if value > 90.0
    )
    return len(resize_actions), violations


def test_pattern_history_prevents_flapping(experiment):
    def run():
        return run_scaler(pattern_history=True), run_scaler(
            pattern_history=False
        )

    with_history, without_history = experiment(run)

    table = Table(["configuration", "resize actions (3 days)",
                   "SLO-violation samples"])
    table.add_row("preactive (14-day history)", *with_history)
    table.add_row("no history (estimate only)", *without_history)
    print("\n" + table.render())

    history_actions, history_violations = with_history
    naive_actions, naive_violations = without_history

    assert history_actions < naive_actions, (
        "historical pruning must reduce allocation churn"
    )
    assert history_violations <= naive_violations, (
        "stability must not come at the cost of more violations"
    )
