"""The platform's one stepping path: a single ``data-plane-step`` timer.

The timer walks the Task Managers in spawn order and steps each live
manager's tasks in place, so a task's commits and downstream publishes
are visible to every task stepped after it in the same tick.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.sim.engine import Timer
from repro.tasks.manager import step_managers
from tests.tasks.helpers import python_calls

STEP = 10.0


def started_platform(num_hosts=3):
    platform = Turbine.create(
        num_hosts=num_hosts, seed=7,
        config=PlatformConfig(
            num_shards=16, containers_per_host=2, step_interval=STEP
        ),
    )
    platform.start()
    return platform


def armed_timer_names(platform):
    """Names of every timer with a live event queued, in arming order."""
    entries = sorted(
        (seq, event) for __, seq, event in platform.engine.queue._heap
        if not event.cancelled
        and isinstance(getattr(event.callback, "__self__", None), Timer)
    )
    return [event.callback.__self__.name for __, event in entries]


def step_timer_names(platform):
    return [name for name in armed_timer_names(platform) if name.endswith("-step")]


class TestSingleStepTimer:
    def test_one_platform_timer_and_no_per_container_step_timers(self):
        platform = started_platform()
        assert step_timer_names(platform) == ["data-plane-step"]
        # Still exactly one after it has fired and re-armed.
        platform.run_for(seconds=3 * STEP)
        assert step_timer_names(platform) == ["data-plane-step"]

    def test_step_timer_is_armed_after_every_other_start_timer(self):
        """Same-timestamp events fire in arming order, so the data plane
        steps after every control-plane timer due at that instant."""
        platform = started_platform()
        assert armed_timer_names(platform)[-1] == "data-plane-step"

    @pytest.mark.parametrize("hot_add", ["add_host", "recover_host"])
    def test_host_added_after_start_is_stepped(self, hot_add):
        platform = started_platform(num_hosts=2)
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=8,
                    rate_per_thread_mb=5.0)
        )
        platform.run_for(seconds=300.0)
        if hot_add == "add_host":
            platform.add_host("host-new")
            new_host = "host-new"
        else:
            platform.failures.fail_now("host-0")
            platform.run_for(seconds=STEP)
            platform.recover_host("host-0")
            new_host = "host-0"
        new_managers = [
            manager for manager in platform.task_managers.values()
            if manager.container.host_id == new_host
        ]
        assert len(new_managers) == 2
        assert step_timer_names(platform) == ["data-plane-step"]
        # Kill every other host so fail-over must land the tasks on the
        # hot-added containers, then check they make progress there.
        for host_id in list(platform.cluster.hosts):
            if host_id != new_host and platform.cluster.hosts[host_id].alive:
                platform.failures.fail_now(host_id)
        platform.run_for(seconds=300.0)
        hosted = [
            task for manager in new_managers for task in manager.tasks.values()
        ]
        assert len(hosted) == 8
        before = sum(task.total_processed_mb for task in hosted)
        platform.scribe.get_category("cat").append(80.0)
        platform.run_for(seconds=2 * STEP)
        assert sum(task.total_processed_mb for task in hosted) == pytest.approx(
            before + 80.0
        )


class TestSameTickVisibility:
    """Read-after-publish inside one tick follows the spawn-order walk."""

    PAIRS = 8

    def _pipelines(self):
        platform = started_platform()
        for index in range(self.PAIRS):
            # Downstream first, so ``mid-i`` exists with one partition
            # before the upstream's first publish.
            platform.provision(
                JobSpec(job_id=f"down-{index}", input_category=f"mid-{index}",
                        task_count=1, rate_per_thread_mb=10.0),
                partitions=1,
            )
            platform.provision(
                JobSpec(job_id=f"up-{index}", input_category=f"src-{index}",
                        output_category=f"mid-{index}", output_ratio=0.5,
                        task_count=1, rate_per_thread_mb=10.0),
                partitions=1,
            )
        platform.run_for(seconds=300.0)
        return platform

    @staticmethod
    def _walk(platform):
        """job id -> (position in the tick's walk, task)."""
        walk = {}
        for manager in platform.task_managers.values():
            for task in manager.tasks.values():
                walk[task.spec.job_id] = (len(walk), task)
        return walk

    def test_downstream_sees_same_tick_publish_iff_stepped_later(self):
        platform = self._pipelines()
        walk = self._walk(platform)
        assert len(walk) == 2 * self.PAIRS, "every task must be running"
        for index in range(self.PAIRS):
            platform.scribe.get_category(f"src-{index}").append(6.0)
        platform.run_for(seconds=STEP)  # exactly one tick

        same_tick, next_tick = [], []
        for index in range(self.PAIRS):
            up_pos, up = walk[f"up-{index}"]
            down_pos, down = walk[f"down-{index}"]
            assert up.total_processed_mb == pytest.approx(6.0)
            mid = platform.scribe.get_category(f"mid-{index}")
            assert mid.total_head() == pytest.approx(3.0)
            if up_pos < down_pos:
                same_tick.append(index)
                assert down.total_processed_mb == pytest.approx(3.0), index
            else:
                next_tick.append(index)
                assert down.total_processed_mb == 0.0, index
        # The placement must exercise both orders, or the test is vacuous.
        assert same_tick and next_tick, (same_tick, next_tick)

        platform.run_for(seconds=STEP)
        for index in next_tick:
            _pos, down = walk[f"down-{index}"]
            assert down.total_processed_mb == pytest.approx(3.0), index


def one_container_platform(task_count):
    """Every task of ``job`` on the fleet's single container, settled."""
    platform = Turbine.create(
        num_hosts=1, seed=7,
        config=PlatformConfig(
            num_shards=8, containers_per_host=1, step_interval=STEP
        ),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=task_count,
                rate_per_thread_mb=5.0),
        partitions=4 * task_count,
    )
    platform.run_for(seconds=300.0)
    (manager,) = platform.task_managers.values()
    assert len(manager.running_task_ids()) == task_count
    return platform, manager


def step_once(platform, manager):
    """One more fleet-loop pass over ``manager`` alone, a full interval
    after its last step, outside the timer."""
    now = platform.now
    manager._last_step_time = now - STEP
    step_managers(platform.scribe, [manager], now)


class TestChecksSurviveTheFlattening:
    """The step reads heads and cursors in place; what ``Partition`` and
    ``CheckpointStore`` used to check on the way is still checked."""

    @pytest.mark.parametrize("cursor, message", [
        (-1.0, "negative offset"),
        (1e9, "beyond head"),
    ])
    def test_corrupted_cursor_raises_from_the_managers_step(self, cursor, message):
        from repro.errors import ScribeError

        platform, manager = one_container_platform(task_count=2)
        platform.scribe.get_category("cat").append(80.0)
        # Written into the live column, past ``commit``'s own checks.
        platform.scribe.checkpoints.column("job", "cat", 8)[3] = cursor
        with pytest.raises(ScribeError, match=message):
            step_once(platform, manager)

    def test_commits_after_a_mid_run_drop_land_in_the_live_mapping(self):
        """The chaos ``checkpoint-wipe`` and ``forget_job`` both drop a
        job's cursors while its tasks still run: the step may not hold
        on to the mapping it read last tick."""
        platform, manager = one_container_platform(task_count=2)
        checkpoints = platform.scribe.checkpoints
        category = platform.scribe.get_category("cat")
        category.append(80.0)
        platform.run_for(seconds=STEP)
        assert checkpoints.get("job", "cat/0") == 10.0
        checkpoints.drop_job("job")
        assert "job" not in checkpoints.job_ids()
        category.append(8.0)
        platform.run_for(seconds=STEP)
        # Re-read from 0: 11 MB per partition, visible every way in.
        assert "job" in checkpoints.job_ids()
        assert checkpoints.get("job", "cat/0") == 11.0
        assert checkpoints.snapshot("job") == {
            f"cat/{index}": 11.0 for index in range(8)
        }
        assert checkpoints.columns["job"] == {"cat": [11.0] * 8}
        assert platform.job_lag_mb("job") == 0.0

    def test_offline_partition_reads_nothing_and_lags_in_full(self):
        platform, manager = one_container_platform(task_count=2)
        category = platform.scribe.get_category("cat")
        category.partitions[2].online = False
        category.append(80.0)
        platform.run_for(seconds=STEP)
        checkpoints = platform.scribe.checkpoints
        assert checkpoints.get("job", "cat/2") == 0.0
        assert checkpoints.get("job", "cat/0") == 10.0
        # Task 0 of 2 owns partitions 0, 2, 4, 6.
        assert manager.tasks["job:0"].total_processed_mb == 30.0
        assert manager.tasks["job:0"].bytes_lagged_mb() == 10.0
        assert platform.job_lag_mb("job") == 10.0
        category.partitions[2].online = True
        platform.run_for(seconds=STEP)
        assert platform.job_lag_mb("job") == 0.0


class TestHostedThreads:
    """The fleet loop's contention bound: each manager's
    ``_hosted_threads`` is the threads of what it hosts, through starts,
    settings restarts, rescales, fail-over and reboots."""

    @staticmethod
    def assert_bound_holds(platform):
        for manager in platform.task_managers.values():
            assert manager._hosted_threads == sum(
                task.spec.threads for task in manager._hosted()
            ), manager

    def test_bound_follows_every_way_in_and_out(self):
        from repro.jobs import ConfigLevel

        platform = started_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=6,
                    threads_per_task=2, rate_per_thread_mb=5.0)
        )
        platform.run_for(seconds=300.0)
        self.assert_bound_holds(platform)
        assert sum(
            manager._hosted_threads for manager in platform.task_managers.values()
        ) == 12
        platform.job_service.patch("job", ConfigLevel.ONCALL, {"threads_per_task": 3})
        platform.job_service.patch("job", ConfigLevel.SCALER, {"task_count": 4})
        platform.run_for(seconds=300.0)
        self.assert_bound_holds(platform)
        assert sum(
            manager._hosted_threads for manager in platform.task_managers.values()
        ) == 12
        platform.failures.fail_now("host-0")
        platform.run_for(seconds=300.0)
        self.assert_bound_holds(platform)

    def test_threads_below_one_never_reach_a_container(self):
        """Refused at write time: the running specs keep their threads."""
        from repro.errors import JobStoreError
        from repro.jobs import ConfigLevel

        platform = started_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=5.0)
        )
        platform.run_for(seconds=300.0)
        with pytest.raises(JobStoreError, match="threads_per_task"):
            platform.job_service.patch(
                "job", ConfigLevel.ONCALL, {"threads_per_task": -1}
            )
        platform.run_for(seconds=300.0)
        threads = [
            task.spec.threads for manager in platform.task_managers.values()
            for task in manager.tasks.values()
        ]
        assert threads == [1, 1]


class TestCallCount:
    """What the flat step buys, independent of the hardware: the number of
    Python-level calls in a container-tick does not grow with the tasks
    or partitions the container hosts."""

    def calls_per_tick(self, task_count):
        platform, manager = one_container_platform(task_count)
        platform.scribe.get_category("cat").append(4.0 * task_count)
        processed = sum(t.total_processed_mb for t in manager.tasks.values())
        calls = python_calls(lambda: step_once(platform, manager))
        assert sum(
            task.total_processed_mb for task in manager.tasks.values()
        ) == pytest.approx(processed + 4.0 * task_count)
        return calls

    def test_calls_per_container_tick_do_not_grow_with_tasks(self):
        few, many = self.calls_per_tick(4), self.calls_per_tick(32)
        assert few == many
        # 7 through the fleet loop; 10 when each manager stepped itself.
        assert few < 10
