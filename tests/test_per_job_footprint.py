"""What each job keeps resident (DESIGN.md, "Resident footprint"): SLO
alerts and breach windows that keep only what they say, views that share
what equal configs decode to, one empty config level, metric columns
without per-column counters, and a pending timer that is its own
event-queue entry."""

import sys
import tracemalloc

from repro.jobs import JobService, JobSpec, JobStore
from repro.jobs.configs import ConfigLevel
from repro.metrics.store import MetricStore
from repro.obs.slo import DEFAULT_BURN_RULES, BreachWindow, default_slo_specs
from repro.sim import events as events_module
from repro.sim.engine import Engine
from repro.cluster.resources import ResourceVector

from tests.obs.test_slo import build_tracker

#: Bytes tracemalloc may count for one retained SLO alert, its list slot
#: included. An alert that formatted its ``what`` and kept it in a
#: dataclass with a ``__dict__`` counted 205-268 B (CPython 3.12, 3.9);
#: the slotted record counts 80-81 B.
MAX_ALERT_BYTES = 100

#: Bytes a metric column may weigh once read: the object and what only it
#: holds, its values aside. 125-129 B when each column carried its own
#: ``window_queries`` and ``compactions`` (two slots, and an ``int``
#: object once a count passes 256); 81 B now (CPython 3.9 to 3.13).
MAX_COLUMN_BYTES = 96


def test_an_slo_alert_holds_no_text_and_weighs_under_100_bytes():
    engine, __, __, tracker, __ = build_tracker()
    spec, rule = default_slo_specs()[0], DEFAULT_BURN_RULES[0]
    count, now, burn = 2_000, 3600.0, 20.5
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for __ in range(count):
            tracker._alert("job", spec, rule, burn, now)
        weight = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    alert = tracker.alerts[-1]
    assert not hasattr(alert, "__dict__")
    held = [getattr(alert, slot) for slot in type(alert).__slots__]
    assert [value for value in held if isinstance(value, str)] == ["job"]
    assert weight <= MAX_ALERT_BYTES, weight
    # The reading surface builds the strings a formatted alert kept.
    assert (alert.time, alert.severity, alert.what, alert.runbook) == (
        3600.0, "page",
        "job: lag SLO burning 20.5x budget over 1h (threshold 14.4x)",
        spec.runbook,
    )


def test_a_breach_window_is_slotted():
    breach = BreachWindow("job", "lag", 60.0)
    assert not hasattr(breach, "__dict__")
    assert breach.open and breach.end is None
    breach.end = 120.0
    assert breach.to_dict(180.0)["duration"] == 60.0


def provisioned_store(*specs):
    store = JobStore()
    service = JobService(store)
    for spec in specs:
        service.provision(spec)
    return store


def test_equal_configs_share_their_resources_and_package_strings():
    store = provisioned_store(
        JobSpec(job_id="a", input_category="cat-a", package_version="2.7"),
        JobSpec(job_id="b", input_category="cat-b", package_version="2.7"),
        JobSpec(
            job_id="c", input_category="cat-c", package_version="2.7",
            resources_per_task=ResourceVector(cpu=0.5, memory_gb=0.75),
        ),
    )
    a, b, c = (store.view(job_id) for job_id in "abc")
    assert a.resources == b.resources
    assert all(pair is other for pair, other in zip(a.resources, b.resources))
    assert a.package_version is b.package_version is c.package_version
    assert a.package_name is c.package_name
    assert a.cpu_per_task is b.cpu_per_task
    # A differing config shares its equal pairs, not the whole tuple.
    assert c.resources != a.resources
    assert dict(c.resources)["memory_gb"] == 0.75
    shared = [pair for pair in c.resources if pair in a.resources]
    assert shared and all(
        any(pair is other for other in a.resources) for pair in shared
    )


def test_the_view_memo_grows_with_distinct_pairs_not_their_combinations():
    """Every (cpu, memory) combination of five cpu and six memory sizes
    decodes through one store: the memo holds the eleven pairs and the
    package strings, not thirty resource tuples."""
    cpus, memories = (0.25, 0.5, 1.0, 2.0, 4.0), (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    store = JobStore()
    strings = set()
    for cpu in cpus:
        for memory in memories:
            job_id = f"job-{cpu}-{memory}"
            store.create_job(job_id)
            store.write_expected(
                job_id, ConfigLevel.PROVISIONER,
                {"resources": {"cpu": cpu, "memory_gb": memory}}, 0,
            )
            view = store.view(job_id)
            assert view.resources == (("cpu", cpu), ("memory_gb", memory))
            strings.update((view.package_name, view.package_version))
    assert len(store._parts) <= len(cpus) + len(memories) + len(strings)


def test_sharing_never_swaps_a_value_for_one_that_only_compares_equal():
    store = JobStore()
    for job_id, cpu in (("int", 1), ("float", 1.0), ("zero", 0.0), ("minus", -0.0)):
        store.create_job(job_id)
        store.write_expected(
            job_id, ConfigLevel.PROVISIONER, {"resources": {"cpu": cpu}}, 0
        )
    reprs = {job_id: repr(store.view(job_id).resources) for job_id in store.job_ids()}
    assert reprs == {
        "float": "(('cpu', 1.0),)", "int": "(('cpu', 1),)",
        "minus": "(('cpu', -0.0),)", "zero": "(('cpu', 0.0),)",
    }


def test_a_new_jobs_empty_levels_are_one_object():
    store = JobStore()
    for job_id in ("a", "b", "c"):
        store.create_job(job_id)
    stored = [
        entry for levels in store._expected.values() for entry in levels.values()
    ] + list(store._running.values())
    assert len(stored) == 15
    assert len({id(entry) for entry in stored}) == 1


def test_a_read_column_weighs_at_most_96_bytes():
    """Weight: what tracemalloc counts per column when each of 32 warm rows
    lands a second column and reads it 300 times, its value array aside.
    The warm-up (a first column per row, read as often) runs traced too,
    so a counter that moves off the small ints is counted where it lives."""
    store = MetricStore()
    entities = [f"job-{index}" for index in range(32)]
    tracemalloc.start()
    try:
        for entity in entities:
            store.record_row(entity, 0.0, ("first",), (1.0,))
            for __ in range(300):
                store.row(entity)["first"].average_over(60.0, 0.0)
        before = tracemalloc.get_traced_memory()[0]
        for entity in entities:
            store.record_row(entity, 0.0, ("second",), (2.0,))
            column = store.row(entity)["second"]
            for __ in range(300):
                column.average_over(60.0, 0.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = sum(sys.getsizeof(store.row(entity)["second"]._values) for entity in entities)
    weight = (grown - arrays) / len(entities)
    assert store.read_stats()["window_queries"] == 2 * 300 * len(entities)
    assert weight <= MAX_COLUMN_BYTES, weight


def test_arming_a_timer_allocates_no_event_and_no_bound_method(monkeypatch):
    made = []

    class CountedEvent(events_module.Event):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(events_module, "Event", CountedEvent)
    engine = Engine(seed=0)
    fired = []
    timer = engine.every(10.0, lambda: fired.append(engine.now), name="t")
    callback = timer.callback
    for __ in range(5):
        (time, __, entry), = engine.queue._heap
        assert entry is timer and time == engine.now + 10.0
        engine.run_for(10.0)
    assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert timer.callback is callback
    assert made == []
