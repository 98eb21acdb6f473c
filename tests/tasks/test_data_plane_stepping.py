"""The platform's one stepping path: a single ``data-plane-step`` timer.

The timer walks the Task Managers in spawn order and steps each live
manager's tasks in place, so a task's commits and downstream publishes
are visible to every task stepped after it in the same tick.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.sim.engine import Timer

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
    events = sorted(
        (
            event for event in platform.engine.queue._heap
            if not event.cancelled
            and isinstance(getattr(event.callback, "__self__", None), Timer)
        ),
        key=lambda event: event.seq,
    )
    return [event.callback.__self__.name for event in events]


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
