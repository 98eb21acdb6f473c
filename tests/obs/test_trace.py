"""Unit tests for the causal decision tracer."""

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    SLOT_SYMPTOM,
    TraceEvent,
    Tracer,
    chain_from_events,
    render_chain_from_events,
)


class TestDisabled:
    def test_record_returns_none_and_stores_nothing(self):
        tracer = Tracer()
        assert tracer.record("detector", "symptom", job_id="job") is None
        assert len(tracer.events) == 0

    def test_context_slots_are_inert(self):
        tracer = Tracer()
        event = TraceEvent("T1", "s1", None, 0.0, "detector", "symptom")
        tracer.set_context("job", SLOT_SYMPTOM, event)
        assert tracer.claim_context("job", SLOT_SYMPTOM) is None
        tracer.set_shard_context("shard-1", event)
        assert tracer.peek_shard_context("shard-1") is None

    def test_null_tracer_cannot_be_enabled(self):
        with pytest.raises(RuntimeError, match="shared and cannot be enabled"):
            NULL_TRACER.enable()
        # The refusal left every defaulted component's tracer off.
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.record("detector", "symptom", job_id="job") is None

    def test_real_tracer_enable_disable(self):
        tracer = Tracer()
        tracer.enable()
        assert tracer.record("a", "b") is not None
        tracer.enabled = False
        assert tracer.record("a", "b") is None


class TestRecording:
    def test_new_trace_without_parent(self):
        tracer = Tracer(enabled=True)
        first = tracer.record("detector", "symptom", job_id="job")
        second = tracer.record("detector", "symptom", job_id="job")
        assert first.trace_id != second.trace_id
        assert first.parent_id is None

    def test_parent_joins_trace(self):
        tracer = Tracer(enabled=True)
        parent = tracer.record("detector", "symptom", job_id="job")
        child = tracer.record("scaler", "action", job_id="job", parent=parent)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_clock_stamps_events(self):
        time = [0.0]
        tracer = Tracer(clock=lambda: time[0], enabled=True)
        time[0] = 42.5
        assert tracer.record("a", "b").time == 42.5

    def test_detail_is_sorted_and_accessible(self):
        tracer = Tracer(enabled=True)
        event = tracer.record("a", "b", zebra=1, alpha=2)
        assert [key for key, __ in event.detail] == ["alpha", "zebra"]
        assert dict(event.detail) == {"alpha": 2, "zebra": 1}

    def test_max_events_evicts_oldest(self):
        # Retention uses BoundedList (the health-report pattern): the cap
        # is never exceeded, eviction drops the oldest events first, and
        # the newest events always survive.
        tracer = Tracer(enabled=True, max_events=5)
        for index in range(8):
            tracer.record("a", "b", index=index)
        assert len(tracer.events) <= 5
        indices = [dict(event.detail)["index"] for event in tracer.events]
        assert indices == sorted(indices)
        assert indices[-1] == 7
        assert 0 not in indices

    def test_bounded_events_still_chain_and_export(self):
        tracer = Tracer(enabled=True, max_events=10)
        parent = None
        for index in range(25):
            parent = tracer.record(
                "a", "step", job_id="job", index=index, parent=parent
            )
        # The retained window still renders and chains without the
        # evicted ancestors: the chain is just the surviving suffix.
        chain = tracer.chain("job")
        assert chain
        assert chain[-1] is parent
        lines = tracer.to_jsonl().strip().splitlines()
        assert len(lines) == len(tracer.events)


class TestContextSlots:
    def test_claim_pops(self):
        tracer = Tracer(enabled=True)
        event = tracer.record("detector", "symptom", job_id="job")
        tracer.set_context("job", SLOT_SYMPTOM, event)
        assert tracer.claim_context("job", SLOT_SYMPTOM) is event
        assert tracer.claim_context("job", SLOT_SYMPTOM) is None

    def test_peek_does_not_pop(self):
        tracer = Tracer(enabled=True)
        event = tracer.record("detector", "symptom", job_id="job")
        tracer.set_context("job", SLOT_SYMPTOM, event)
        assert tracer.peek_context("job", SLOT_SYMPTOM) is event
        assert tracer.peek_context("job", SLOT_SYMPTOM) is event

    def test_slots_are_per_job(self):
        tracer = Tracer(enabled=True)
        event = tracer.record("detector", "symptom", job_id="a")
        tracer.set_context("a", SLOT_SYMPTOM, event)
        assert tracer.claim_context("b", SLOT_SYMPTOM) is None

    def test_shard_context_set_and_clear(self):
        tracer = Tracer(enabled=True)
        event = tracer.record("shard-manager", "shard-move", shard="s1")
        tracer.set_shard_context("s1", event)
        assert tracer.peek_shard_context("s1") is event
        tracer.clear_shard_context("s1")
        assert tracer.peek_shard_context("s1") is None


class TestChain:
    def build(self):
        tracer = Tracer(enabled=True)
        symptom = tracer.record("detector", "symptom", job_id="job")
        action = tracer.record(
            "auto-scaler", "action", job_id="job", parent=symptom
        )
        tracer.record("job-store", "config-write", job_id="job", parent=action)
        tracer.record("detector", "symptom", job_id="other")
        tracer.record(
            "shard-manager", "shard-move", jobs=["job", "other"], shard="s1"
        )
        return tracer

    def test_mentions_job_via_jobs_detail(self):
        tracer = self.build()
        move = tracer.events[-1]
        assert move.mentions_job("job")
        assert move.mentions_job("other")
        assert not move.mentions_job("third")

    def test_chain_collects_whole_traces(self):
        tracer = self.build()
        chain = tracer.chain("job")
        kinds = [event.kind for event in chain]
        assert kinds == ["symptom", "action", "config-write", "shard-move"]

    def test_chain_excludes_other_jobs(self):
        tracer = self.build()
        assert all(
            event.job_id != "other" for event in tracer.chain("job")
        )

    def test_render_chain_indents_children(self):
        tracer = self.build()
        text = tracer.render_chain("job")
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        symptom_line = next(line for line in lines if "symptom" in line)
        action_line = next(line for line in lines if "action" in line)
        indent = len(symptom_line) - len(symptom_line.lstrip())
        child_indent = len(action_line) - len(action_line.lstrip())
        assert child_indent > indent

    def test_render_chain_empty(self):
        tracer = Tracer(enabled=True)
        assert "no trace events" in tracer.render_chain("ghost")


class TestExport:
    def test_jsonl_roundtrip(self):
        tracer = TestChain().build()
        loaded = Tracer.load_jsonl(tracer.to_jsonl())
        assert loaded == list(tracer.events)

    def test_chain_from_loaded_events_matches(self):
        tracer = TestChain().build()
        loaded = Tracer.load_jsonl(tracer.to_jsonl())
        assert chain_from_events(loaded, "job") == tracer.chain("job")
        assert render_chain_from_events(
            loaded, "job"
        ) == tracer.render_chain("job")

    def test_write_jsonl(self, tmp_path):
        tracer = TestChain().build()
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        assert Tracer.load_jsonl(path.read_text()) == list(tracer.events)
