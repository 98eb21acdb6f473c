"""Whole-platform determinism: same seed ⇒ identical runs, bit for bit.

The experiments' reproducibility rests on this property, so it gets its
own integration test: two independently constructed platforms with the
same seed must produce identical metric streams, placements, and scaler
decisions over a busy hour that includes failures and scaling.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.cluster import FailurePlan
from repro.scaler import AutoScalerConfig
from repro.workloads import DiurnalPattern, TrafficDriver


def run_busy_hour(
    seed, observe=False,
    replication=False, durable_checkpoints=False, hot_standby=False,
    flag_hot_standby=None, slow_node_detection=False, failures=True,
):
    # The JobSpec opt-in flag normally follows the plane toggle, but the
    # standby transparency test sets it on BOTH arms (it is inert without
    # the plane) so the provisioner's config-write trace matches and only
    # the plane itself differs across the pair.
    if flag_hot_standby is None:
        flag_hot_standby = hot_standby
    platform = Turbine.create(
        num_hosts=4, seed=seed,
        config=PlatformConfig(
            num_shards=32, containers_per_host=2,
            durable_checkpoints=durable_checkpoints, hot_standby=hot_standby,
            slow_node_detection=slow_node_detection,
        ),
    )
    if observe:
        platform.enable_tracing()
        platform.enable_instrumentation()
    platform.attach_scaler(AutoScalerConfig(interval=120.0))
    platform.attach_slo()
    if replication:
        platform.attach_replication()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(4):
        pattern = DiurnalPattern(
            3.0 + index, amplitude=0.3,
            rng=platform.engine.rng.fork(f"wl-{index}"),
        )
        platform.provision(
            JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}",
                    task_count=2, rate_per_thread_mb=2.0,
                    hot_standby=flag_hot_standby),
        )
        driver.add_source(f"cat-{index}", pattern)
    driver.start()
    if failures:
        platform.failures.schedule(
            FailurePlan("host-1", fail_at=1200.0, recover_at=2400.0)
        )
    platform.run_for(hours=1)

    fingerprint = {
        "assignment": dict(platform.shard_manager.assignment),
        "tasks": platform.running_tasks(),
        "lags": {
            f"job-{i}": platform.metrics.row(f"job-{i}")[
                "time_lagged"
            ].all_points()
            for i in range(4)
        },
        "actions": [
            (a.time, a.job_id, a.action.value, a.task_count, a.threads)
            for a in platform.scaler.actions
        ],
        "failovers": [
            (e.time, e.container_id, e.shards_moved)
            for e in platform.shard_manager.failover_events
        ],
        "checkpoint_total": sum(
            platform.scribe.checkpoints.get(f"job-{i}", p.partition_id)
            for i in range(4)
            for p in platform.scribe.get_category(f"cat-{i}").partitions
        ),
    }
    if observe:
        from repro.ops.timeline import IncidentTimeline

        exports = {
            "trace": platform.tracer.to_jsonl(),
            "telemetry": platform.telemetry.to_jsonl(deterministic=True),
            "timeline": IncidentTimeline(platform).render(),
            "slo": platform.slo.to_json(platform.now),
        }
        return fingerprint, exports
    return fingerprint


def test_same_seed_identical_runs():
    assert run_busy_hour(seed=101) == run_busy_hour(seed=101)


def test_different_seed_differs():
    a = run_busy_hour(seed=101)
    b = run_busy_hour(seed=202)
    assert a != b, "different seeds must explore different trajectories"


class TestChaosScenarioDeterminism:
    """Golden chaos replays: same scenario + same seed ⇒ byte-identical
    incident timelines and deterministic telemetry exports.

    This is the property the CI determinism sweep enforces across seeds;
    resilience counters (``resilience.*``), chaos bookkeeping
    (``chaos.*``), and skipped-round counts are all deterministic
    instruments, so they must agree bit for bit too.
    """

    def test_same_seed_byte_identical_chaos_runs(self):
        from repro.chaos import run_scenario

        first = run_scenario("job-store-outage", seed=7)
        second = run_scenario("job-store-outage", seed=7)
        assert first.mttr == second.mttr
        assert first.timeline_text == second.timeline_text
        assert first.telemetry_jsonl == second.telemetry_jsonl
        assert first.timeline_text, "timeline export must not be empty"
        assert "resilience." in first.telemetry_jsonl

    def test_slo_report_byte_identical_and_populated(self):
        """The acceptance bar: ``repro chaos --seed N`` exports a
        byte-identical SLO report across repeated same-seed runs, and the
        report actually accounts budgets (not vacuously empty)."""
        import json

        from repro.chaos import run_scenario

        first = run_scenario("metric-gap", seed=5)
        second = run_scenario("metric-gap", seed=5)
        assert first.slo_report_json == second.slo_report_json
        assert first.budget_burned == second.budget_burned
        report = json.loads(first.slo_report_json)
        assert report["slos"], "default SLOs must be tracked during drills"
        assert report["evaluations"] > 0
        # SLO-derived telemetry is part of the deterministic export too.
        assert "slo.evals" in first.telemetry_jsonl
        assert "sli.fleet.jobs_total" in first.telemetry_jsonl

    def test_syncer_crash_replay_identical(self):
        from repro.chaos import run_scenario

        first = run_scenario("syncer-crash", seed=11)
        second = run_scenario("syncer-crash", seed=11)
        assert first.timeline_text == second.timeline_text
        assert first.telemetry_jsonl == second.telemetry_jsonl

    @pytest.mark.parametrize("seed", [0, 7, 21])
    @pytest.mark.parametrize(
        "scenario", ["checkpoint-restore-vs-cold-restart", "standby-takeover"]
    )
    def test_resiliency_drills_byte_identical_on_all_five_exports(
        self, scenario, seed
    ):
        """These drills inject checkpoint loss and host failure mid-run,
        so the comparison covers roll-forward, duplicate-incarnation and
        promoted-standby stepping, not just steady state."""
        from repro.chaos import run_scenario

        first = run_scenario(scenario, seed=seed)
        second = run_scenario(scenario, seed=seed)
        assert second.fingerprint_json == first.fingerprint_json
        assert second.timeline_text == first.timeline_text
        assert second.slo_report_json == first.slo_report_json
        assert second.trace_jsonl == first.trace_jsonl
        assert second.telemetry_jsonl == first.telemetry_jsonl
        assert first.fingerprint_json, "fingerprint must not be empty"
        assert first.trace_jsonl, "trace must not be empty"

    def test_different_seed_differs_somewhere(self):
        from repro.chaos import run_scenario

        a = run_scenario("job-store-outage", seed=7)
        b = run_scenario("job-store-outage", seed=8)
        assert (
            a.timeline_text != b.timeline_text
            or a.telemetry_jsonl != b.telemetry_jsonl
        ), "different seeds must explore different trajectories"


class TestMetricReadsTransparency:
    """Metric reads are pure: the scaler and the SLO plane read windows
    off the platform store every round, and no read creates a series."""

    def test_reads_create_nothing_and_batches_land(self):
        platform = Turbine.create(
            num_hosts=4, seed=101,
            config=PlatformConfig(num_shards=32, containers_per_host=2),
        )
        platform.attach_scaler(AutoScalerConfig(interval=120.0))
        slo = platform.attach_slo()
        platform.start()
        driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=2.0)
        )
        driver.add_source(
            "cat", DiurnalPattern(3.0, amplitude=0.3,
                                  rng=platform.engine.rng.fork("wl")),
        )
        driver.start()
        platform.run_for(hours=1)
        stats = platform.metrics.read_stats()
        assert stats["window_queries"] > 0, "the scaler reads rate windows"
        assert slo._ledgers, "the SLO plane must have been written"
        assert stats["batches_ingested"] > 0, (
            "driver/stats collection should land coalesced batches"
        )
        # Reads create nothing: one more SLO round and one more scaler
        # round (no OOM happened, so ``oom_events`` has never been
        # written) leave the platform store's series set as it was.
        assert platform.metrics.latest("job", "oom_events") is None
        def columns():
            return {
                (entity, metric)
                for entity, row in platform.metrics._rows.items()
                for metric in row.columns
            }

        series_before = columns()
        slo.evaluate_once()
        platform.scaler.run_once()
        assert columns() == series_before
        assert ("job", "oom_events") not in series_before


class TestReplicationTransparency:
    """Job Store replication must be invisible until a fault needs it.

    A replicated platform tails every mutation into the Scribe command
    log and runs lease/catch-up timers, but none of that may perturb the
    simulation: fault-free golden same-seed runs with replication on and
    off must agree on the coarse fingerprint, the byte-exact causal
    trace, the rendered incident timeline, and the SLO report — the
    ``timeline.txt``/``slo.json`` exports of ``repro chaos --out-dir``. The
    telemetry export is deliberately NOT compared across the pair:
    ``repl.*`` counters exist only on the replicated arm (and are
    themselves deterministic, which the chaos determinism sweep checks).
    """

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_same_seed_byte_identical_replication_on_and_off(self, seed):
        fp_on, exports_on = run_busy_hour(
            seed=seed, replication=True, observe=True
        )
        fp_off, exports_off = run_busy_hour(
            seed=seed, replication=False, observe=True
        )
        assert fp_on == fp_off
        assert exports_on["trace"] == exports_off["trace"]
        assert exports_on["timeline"] == exports_off["timeline"]
        assert exports_on["slo"] == exports_off["slo"]

    def test_replication_actually_engaged_in_golden_run(self):
        """Guard against the transparency test passing vacuously."""
        platform = Turbine.create(
            num_hosts=4, seed=101,
            config=PlatformConfig(num_shards=32, containers_per_host=2),
        )
        group = platform.attach_replication()
        platform.start()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2)
        )
        platform.run_for(hours=0.5)
        assert group.log.head_index > 0, "mutations should reach the log"
        assert group.in_sync, "followers should have caught up"
        assert list(group.events) == [], (
            "fault-free runs must record no replication events"
        )


class TestResiliencyTransparency:
    """Data-plane resiliency must be invisible until a fault needs it.

    The checkpoint plane, the hot-standby plane, and the slow-node
    detector each add timers and Scribe traffic, but none may perturb
    the simulation they protect: golden same-seed runs with the feature
    on and off must agree on the coarse fingerprint, the byte-exact
    causal trace, the rendered incident timeline, and the SLO report.

    Two deliberate asymmetries:

    * The checkpoint pair is NOT compared on telemetry — ``ckpt.appends``
      exists only on the on arm (the replication precedent). The
      slow-node pair IS, modulo engine self-diagnostics that count the
      detector's own timer: the detector only writes ``slownode.*``
      counters when it drains, and a healthy fleet gives it nothing to
      drain.
    * The standby pair runs without the host-1 failure plan. A host
      failure is exactly when standbys are *supposed* to change the
      outcome (promotion beats the 40 s reboot clock), so transparency
      is only claimed fault-free; the engaged path is covered by the
      ``standby-takeover`` chaos scenario tests.
    """

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_checkpoints_on_and_off_byte_identical(self, seed):
        fp_on, exports_on = run_busy_hour(
            seed=seed, durable_checkpoints=True, observe=True
        )
        fp_off, exports_off = run_busy_hour(seed=seed, observe=True)
        assert fp_on == fp_off
        assert exports_on["trace"] == exports_off["trace"]
        assert exports_on["timeline"] == exports_off["timeline"]
        assert exports_on["slo"] == exports_off["slo"]

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_standby_on_and_off_byte_identical_fault_free(self, seed):
        fp_on, exports_on = run_busy_hour(
            seed=seed, hot_standby=True, failures=False, observe=True
        )
        # The off arm still flags the jobs: the ``hot_standby`` config key
        # is job data and lands in the provisioner trace either way; with
        # no plane attached it is inert, so the pair isolates the plane.
        fp_off, exports_off = run_busy_hour(
            seed=seed, failures=False, flag_hot_standby=True, observe=True
        )
        assert fp_on == fp_off
        assert exports_on["trace"] == exports_off["trace"]
        assert exports_on["timeline"] == exports_off["timeline"]
        assert exports_on["slo"] == exports_off["slo"]

    #: Engine self-diagnostics that definitionally differ when any extra
    #: timer exists: the detector's own fire counter, and the event/queue
    #: meters that count every scheduled event including the timer's.
    _ENGINE_DIAGNOSTICS = (
        '"name": "engine.events"',
        '"name": "engine.queue_depth"',
        '"name": "timer.slow-node-detector.fires"',
    )

    @classmethod
    def _without_engine_diagnostics(cls, telemetry):
        return "\n".join(
            line for line in telemetry.splitlines()
            if not any(marker in line for marker in cls._ENGINE_DIAGNOSTICS)
        )

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_slow_node_detector_on_and_off_byte_identical(self, seed):
        fp_on, exports_on = run_busy_hour(
            seed=seed, slow_node_detection=True, observe=True
        )
        fp_off, exports_off = run_busy_hour(seed=seed, observe=True)
        assert fp_on == fp_off
        assert exports_on["trace"] == exports_off["trace"]
        assert exports_on["timeline"] == exports_off["timeline"]
        assert exports_on["slo"] == exports_off["slo"]
        assert self._without_engine_diagnostics(
            exports_on["telemetry"]
        ) == self._without_engine_diagnostics(exports_off["telemetry"])

    def test_checkpoints_actually_engaged_in_golden_run(self):
        """Guard against the transparency test passing vacuously."""
        platform = Turbine.create(
            num_hosts=4, seed=101,
            config=PlatformConfig(
                num_shards=32, containers_per_host=2, durable_checkpoints=True,
            ),
        )
        platform.start()
        plane = platform.checkpoint_plane
        driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2)
        )
        driver.add_source(
            "cat", DiurnalPattern(3.0, amplitude=0.3,
                                  rng=platform.engine.rng.fork("wl")),
        )
        driver.start()
        platform.run_for(hours=0.5)
        assert plane.appends > 0, "snapshots should reach the per-job log"
        assert plane.restores == 0 and plane.fallbacks == 0
        assert list(plane.events) == [], (
            "fault-free runs must record no checkpoint events"
        )

    def test_standbys_actually_placed_and_promote_on_failure(self):
        """Guard against the transparency test passing vacuously: opted-in
        jobs get passive replicas, and killing a primary's host promotes
        one instead of waiting out the reboot clock."""
        platform = Turbine.create(
            num_hosts=4, seed=101,
            config=PlatformConfig(
                num_shards=32, containers_per_host=2, hot_standby=True,
            ),
        )
        platform.start()
        standby = platform.standby
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    hot_standby=True)
        )
        platform.run_for(hours=0.1)
        assert standby.placements, "opted-in jobs should have replicas"
        assert standby.reserved_memory_gb() > 0.0
        assert list(standby.events) == [], (
            "fault-free runs must record no standby events"
        )
        # Kill the host of the first placed primary; its standby lives
        # elsewhere (anti-affinity) and must take over.
        primary_host = next(
            manager.container.host_id
            for cid in sorted(platform.task_managers)
            for manager in [platform.task_managers[cid]]
            if manager.tasks
        )
        platform.failures.fail_now(primary_host, label="test")
        platform.run_for(hours=0.1)
        assert standby.promotions, "host loss should promote a standby"
        assert any(
            event.kind == "standby-promote" for event in standby.events
        )

    def test_slow_node_detector_observes_but_stays_quiet(self):
        """Guard against the transparency test passing vacuously: the
        detector samples real task rates yet drains nothing healthy."""
        platform = Turbine.create(
            num_hosts=4, seed=101,
            config=PlatformConfig(
                num_shards=32, containers_per_host=2, slow_node_detection=True,
            ),
        )
        platform.start()
        detector = platform.slow_nodes
        driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        driver.add_source(
            "cat", DiurnalPattern(3.0, amplitude=0.3,
                                  rng=platform.engine.rng.fork("wl")),
        )
        driver.start()
        platform.run_for(hours=0.5)
        assert detector._last_totals, "detector should be sampling rates"
        assert detector.drains == 0
        assert list(detector.events) == []

