"""Event bus: envelope stamping, ordering, merging, validation."""

import json

import pytest

from repro.obsv.bus import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    NULL_BUS,
    EventBus,
    JsonlSink,
    NullBus,
    bus_scope,
    get_bus,
    set_bus,
    validate_event_log,
    validate_events,
)
from repro.telemetry import run_context


class TestEnvelope:
    def test_emit_stamps_envelope(self):
        bus = EventBus(clock=lambda: 123.0)
        event = bus.emit("note", text="hello")
        assert event["schema"] == EVENT_SCHEMA_VERSION
        assert event["kind"] == "note"
        assert event["seq"] == 0
        assert event["ts"] == 123.0
        assert event["run_id"] == "-" and event["spec_hash"] == "-"
        assert isinstance(event["origin"], int)

    def test_run_context_flows_into_events(self):
        bus = EventBus()
        with run_context(run_id="fig9", spec_hash="abc123"):
            event = bus.emit("note", text="x")
        assert event["run_id"] == "fig9"
        assert event["spec_hash"] == "abc123"

    def test_seq_strictly_increases(self):
        bus = EventBus()
        seqs = [bus.emit("note", text=str(i))["seq"] for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_payload_fields_ride_along(self):
        bus = EventBus()
        event = bus.emit("sweep_start", n_specs=7, jobs=2)
        assert event["n_specs"] == 7 and event["jobs"] == 2


class TestSubscribers:
    def test_fanout(self):
        bus = EventBus()
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        bus.emit("note", text="x")
        assert len(seen_a) == 1 and len(seen_b) == 1

    def test_raising_subscriber_unsubscribed_not_fatal(self):
        bus = EventBus()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.emit("note", text="1")
        bus.emit("note", text="2")
        # Both events reached the healthy subscriber; the bad one was
        # dropped after its first failure rather than sinking the run.
        assert [e["text"] for e in seen] == ["1", "2"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit("note", text="x")
        assert seen == []


class TestNullBus:
    def test_disabled_and_silent(self):
        assert NullBus.enabled is False
        assert NULL_BUS.emit("note", text="x") is None

    def test_current_bus_defaults_to_null(self):
        assert get_bus() is NULL_BUS

    def test_bus_scope_installs_and_restores(self):
        bus = EventBus()
        with bus_scope(bus):
            assert get_bus() is bus
        assert get_bus() is NULL_BUS

    def test_set_bus_none_restores_null(self):
        bus = EventBus()
        previous = set_bus(bus)
        try:
            assert get_bus() is bus
        finally:
            set_bus(previous)
        assert get_bus() is NULL_BUS


def worker_events(*texts):
    """Events as a pool worker's bus stamps them: its own ``seq``,
    a fixed wall clock."""
    events = []
    worker = EventBus(clock=lambda: 50.0)
    worker.subscribe(events.append)
    for text in texts:
        worker.emit("note", text=text)
    return events


class TestMerge:
    def test_worker_events_merge_with_global_seq(self):
        bus = EventBus()
        bus.emit("note", text="p0")
        merged = [bus.merge(event) for event in worker_events("w0", "w1")]
        later = bus.emit("note", text="p1")
        # The global seq keeps rising across parent and merged events.
        assert [event["seq"] for event in merged] == [1, 2]
        assert later["seq"] == 3
        assert [event["text"] for event in merged] == ["w0", "w1"]

    def test_worker_seq_origin_and_ts_kept(self):
        bus = EventBus(clock=lambda: 99.0)
        bus.emit("note", text="p0")
        events = worker_events("a", "b")
        for event in events:
            event["origin"] = 4242
        seen = []
        bus.subscribe(seen.append)
        for event in events:
            bus.merge(event)
        assert [e["worker_seq"] for e in seen] == [0, 1]
        assert [e["seq"] for e in seen] == [1, 2]
        assert all(e["origin"] == 4242 and e["ts"] == 50.0 for e in seen)
        assert validate_events(seen) == []


class TestJsonlSink:
    def test_round_trip_and_validation(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus()
        with JsonlSink(path) as sink:
            bus.subscribe(sink)
            bus.emit("sweep_start", n_specs=1, jobs=1)
            bus.emit("task_finish", index=0, label="d", elapsed_s=0.1,
                     source="serial", attempts=1)
            bus.emit("sweep_finish", n_specs=1, from_journal=0,
                     executed=1, retries=0, elapsed_s=0.1)
        assert sink.written == 3
        assert validate_event_log(path) == []
        lines = open(path).read().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "sweep_start", "task_finish", "sweep_finish"]

    def test_write_after_close_is_noop(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink({"kind": "note"})  # must not raise
        assert sink.written == 0


class TestValidation:
    def good(self, **overrides):
        event = {"schema": EVENT_SCHEMA_VERSION, "seq": 0, "ts": 1.0,
                 "kind": "note", "text": "x", "run_id": "-",
                 "spec_hash": "-", "origin": 1}
        event.update(overrides)
        return event

    def test_valid_stream(self):
        events = [self.good(), self.good(seq=1), self.good(seq=5)]
        assert validate_events(events) == []

    def test_unknown_kind(self):
        problems = validate_events([self.good(kind="nope")])
        assert any("unknown kind" in p for p in problems)

    def test_missing_required_payload_field(self):
        event = self.good(kind="sweep_start", n_specs=3)  # jobs missing
        problems = validate_events([event])
        assert any("missing field 'jobs'" in p for p in problems)

    def test_every_declared_kind_is_checkable(self):
        for kind, fields in EVENT_KINDS.items():
            event = self.good(kind=kind)
            event.pop("text", None)
            event.update({name: 0 for name in fields})
            assert validate_events([event]) == []

    def test_non_increasing_seq_flagged(self):
        problems = validate_events([self.good(seq=4), self.good(seq=4)])
        assert any("not greater" in p for p in problems)

    def test_wrong_schema_version(self):
        problems = validate_events([self.good(schema=999)])
        assert any("schema" in p for p in problems)

    def test_missing_envelope_field(self):
        event = self.good()
        del event["origin"]
        problems = validate_events([event])
        assert any("origin" in p for p in problems)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "note"\n')
        problems = validate_event_log(str(path))
        assert problems and "not valid JSON" in problems[0]

    def test_missing_file(self, tmp_path):
        problems = validate_event_log(str(tmp_path / "absent.jsonl"))
        assert len(problems) == 1


@pytest.fixture(autouse=True)
def _restore_current_bus():
    yield
    set_bus(None)
