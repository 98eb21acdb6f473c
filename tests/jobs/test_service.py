"""Tests for the Job Service: provisioning, CAS retry loop, isolation."""

import pytest

import repro.jobs.service
from repro.errors import DegradedModeError, JobStoreError
from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore
from repro.types import JobState


def service_with_job(job_id="scuba/ads"):
    service = JobService(JobStore())
    service.provision(JobSpec(job_id=job_id, input_category="ads", task_count=10))
    return service


class TestProvisioning:
    def test_provision_writes_base_and_provisioner(self):
        service = service_with_job()
        merged = service.expected_config("scuba/ads")
        assert merged["task_count"] == 10
        assert merged["package"]["name"] == "stream_engine"

    def test_admission_control_degraded_mode(self):
        """Job Management degraded: keep jobs running, admit nothing new."""
        service = service_with_job()
        service.admitting = False
        with pytest.raises(DegradedModeError):
            service.provision(JobSpec(job_id="new", input_category="c"))
        # Existing jobs still readable and updatable.
        assert service.expected_config("scuba/ads")["task_count"] == 10
        service.patch("scuba/ads", ConfigLevel.ONCALL, {"task_count": 5})

    def test_deprovision(self):
        service = service_with_job()
        service.deprovision("scuba/ads")
        assert service.job_ids() == []


class TestUpdates:
    def test_a_rejected_update_leaves_the_store_unchanged(self):
        """``modify`` edits a nested map of its copy in place and the
        typed check rejects the result: nothing may reach the store, or
        the merged config and the cached typed view would disagree."""
        service = service_with_job()
        store = service.store
        before = store.dump_snapshot()
        view = service.view("scuba/ads")

        def bump(config):
            config["package"]["version"] = 7
            return config

        with pytest.raises(JobStoreError, match="package.version"):
            service.update("scuba/ads", ConfigLevel.PROVISIONER, bump)
        assert store.dump_snapshot() == before
        assert service.expected_config("scuba/ads")["package"]["version"] == "1.0"
        assert service.view("scuba/ads") is view
        assert view.package_version == "1.0"

    def test_patch_shallow_merges(self):
        service = service_with_job()
        service.patch("scuba/ads", ConfigLevel.SCALER, {"task_count": 15})
        assert service.expected_config("scuba/ads")["task_count"] == 15

    def test_scenario_from_paper_section_iii_a(self):
        """Scaler sets 15; two oncalls set 20 then 30. Oncall wins over
        scaler; the second oncall write serializes after the first."""
        service = service_with_job()
        service.patch("scuba/ads", ConfigLevel.SCALER, {"task_count": 15})
        service.patch("scuba/ads", ConfigLevel.ONCALL, {"task_count": 20})
        service.patch("scuba/ads", ConfigLevel.ONCALL, {"task_count": 30})
        assert service.expected_config("scuba/ads")["task_count"] == 30
        # A broken automation service keeps writing the scaler level…
        service.patch("scuba/ads", ConfigLevel.SCALER, {"task_count": 2})
        # …but cannot overwrite the oncall mitigation.
        assert service.expected_config("scuba/ads")["task_count"] == 30

    def test_clear_level_restores_lower_precedence(self):
        service = service_with_job()
        service.patch("scuba/ads", ConfigLevel.ONCALL, {"task_count": 99})
        service.clear_level("scuba/ads", ConfigLevel.ONCALL)
        assert service.expected_config("scuba/ads")["task_count"] == 10

    def test_update_retries_on_conflict(self):
        """A modify function racing with another writer still lands."""
        service = service_with_job()
        store = service.store
        raced = {"done": False}

        def racy_modify(config):
            # Simulate another writer sneaking in between read and write,
            # exactly once.
            if not raced["done"]:
                raced["done"] = True
                current = store.read_expected("scuba/ads", ConfigLevel.SCALER)
                store.write_expected(
                    "scuba/ads", ConfigLevel.SCALER,
                    {"task_count": 7}, current.version,
                )
            config["task_count"] = 15
            return config

        service.update("scuba/ads", ConfigLevel.SCALER, racy_modify)
        final = store.read_expected("scuba/ads", ConfigLevel.SCALER)
        assert final.config["task_count"] == 15
        assert final.version == 2  # racer's write + ours

    def test_update_gives_up_after_max_retries(self, monkeypatch):
        monkeypatch.setattr(repro.jobs.service, "MAX_RETRIES", 3)
        service = service_with_job()
        store = service.store

        def always_race(config):
            current = store.read_expected("scuba/ads", ConfigLevel.SCALER)
            store.write_expected(
                "scuba/ads", ConfigLevel.SCALER, {"x": 1}, current.version
            )
            return config

        with pytest.raises(JobStoreError, match="after 3 retries"):
            service.update("scuba/ads", ConfigLevel.SCALER, always_race)

    def test_modify_returning_none_rejected(self):
        service = service_with_job()
        with pytest.raises(JobStoreError, match="None"):
            service.update("scuba/ads", ConfigLevel.SCALER, lambda config: None)


class TestReads:
    def test_running_config_initially_empty(self):
        service = service_with_job()
        assert service.store.read_running("scuba/ads").config == {}

    def test_active_jobs_excludes_quarantined(self):
        service = service_with_job()
        service.store.set_state("scuba/ads", JobState.QUARANTINED)
        assert service.active_job_ids() == []
        assert service.job_ids() == ["scuba/ads"]
