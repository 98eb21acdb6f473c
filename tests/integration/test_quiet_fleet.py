"""Count guards: a quiet fleet's per-job minute does only the work that
can change an outcome.

* One Auto Scaler round over N healthy, day-young jobs never estimates
  resources: with no lag, no OOM and no quiet window yet, Algorithm 2's
  else branch (NONE) is decided right after the symptom check.
* One stats round reads each job's category head total and backlog in a
  single Scribe walk, never through ``Category.total_head`` /
  ``ScribeBus.backlog_mb``.
* Over a quiet stretch no Task Manager refresh reconciles a shard, the
  Task Service rebuilds no shard index when its TTL lapses, and the
  standby plane looks up no primary: nothing they read has changed.

Counts, not timings: they hold on any machine.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.scaler.detectors import SymptomDetector
from repro.scaler.estimators import ResourceEstimator
from repro.scribe.bus import ScribeBus
from repro.scribe.category import Category
from repro.tasks import shard
from repro.tasks.manager import TaskManager
from repro.tasks.service import TaskService
from repro.tasks.standby import StandbyPlane
from repro.workloads import TrafficDriver

JOBS = 12


@pytest.fixture(scope="module")
def quiet_fleet():
    platform = Turbine.create(
        num_hosts=4, seed=23,
        config=PlatformConfig(
            num_shards=32, containers_per_host=2, hot_standby=True,
        ),
    )
    platform.attach_scaler()  # the paper's day-long quiet window
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(JOBS):
        platform.provision(
            JobSpec(job_id=f"job-{index:02d}", input_category=f"cat-{index:02d}",
                    rate_per_thread_mb=4.0, hot_standby=index % 2 == 0),
            partitions=4,
        )
        driver.add_source(f"cat-{index:02d}", lambda t: 1.0)
    driver.start()
    platform.run_for(minutes=20)
    return platform


def counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_quiet_round_estimates_nothing(quiet_fleet, monkeypatch):
    verdicts = []
    real_detect = SymptomDetector.detect

    def detect(self, snapshot):
        verdict = real_detect(self, snapshot)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(SymptomDetector, "detect", detect)
    estimates = counting(monkeypatch, ResourceEstimator, "estimate")
    decisions = quiet_fleet.scaler.run_once()
    assert len(verdicts) == JOBS, "every job must reach the symptom check"
    assert all(verdict.healthy for verdict in verdicts), "the fleet must be quiet"
    assert decisions == []
    assert estimates == []


def test_a_stats_round_walks_scribe_once_per_job(quiet_fleet, monkeypatch):
    heads = counting(monkeypatch, Category, "total_head")
    backlogs = counting(monkeypatch, ScribeBus, "backlog_mb")
    walks = counting(monkeypatch, ScribeBus, "head_and_backlog_mb")
    quiet_fleet.stats.collect_once()
    assert heads == [] and backlogs == []
    assert len(walks) == JOBS


def test_a_quiet_stretch_reconciles_regroups_and_looks_up_nothing(
    quiet_fleet, monkeypatch
):
    assert quiet_fleet.standby.placements, "the plane must guard replicas"
    reconciles = counting(monkeypatch, TaskManager, "_reconcile_shard")
    groupings = counting(monkeypatch, shard, "shard_id_for_task")
    lookups = counting(monkeypatch, StandbyPlane, "_primary_manager")
    fetches = counting(monkeypatch, TaskService, "shard_index")
    # Longer than the refresh interval and the Task Service's cache TTL,
    # with a standby tick every second.
    quiet_fleet.run_for(minutes=4)
    assert len(fetches) >= len(quiet_fleet.task_managers)  # every refresh ran
    assert reconciles == []
    assert groupings == []
    assert lookups == []
