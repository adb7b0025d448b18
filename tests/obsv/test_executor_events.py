"""Executor-to-bus integration: the sweep's event stream."""

import functools
import os
import re

import pytest

from repro.harness import ParallelExecutor, RunSpec, WorkerTaskError
from repro.obsv.bus import (
    EventBus,
    bus_scope,
    get_bus,
    set_bus,
    validate_events,
)

#: The fields that differ between an inline and a pooled run of the
#: same tasks: where and when each event was stamped, and how long and
#: where each task ran.
HOST_FIELDS = ("seq", "ts", "origin", "worker_seq", "elapsed_s", "source")


def tiny_specs(count=2):
    return [RunSpec(benchmark="queue", design="PMEM-Spec",
                    n_threads=2, fases_per_thread=2, seed=seed)
            for seed in range(count)]


def positive(value):
    if value < 0:
        raise ValueError(f"negative item {value}")
    return value


def noted_chunk(marker, chunk):
    """A batch function that narrates every item on the current bus.
    The chunk holding item 4 raises after its notes the first time it
    runs (creating ``marker`` records that it did)."""
    for item in chunk:
        get_bus().emit("note", text=f"item {item}")
    if 4 in chunk and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("first run of the chunk holding item 4")
    return [2 * item for item in chunk]


def per_task(events):
    """Each task's events, from its first ``batch_start`` to its
    ``batch_finish``, stripped of :data:`HOST_FIELDS` and keyed by the
    task's index; ``steal`` events, which fall between tasks at times
    the host decides, are left out."""
    tasks, current = {}, None
    for event in events:
        if event["kind"] == "steal":
            continue
        if event["kind"] == "batch_start":
            current = tasks.setdefault(event["index"], [])
        if current is not None:
            current.append({key: value for key, value in event.items()
                            if key not in HOST_FIELDS})
        if event["kind"] == "batch_finish":
            current = None
    return tasks


def observed_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    return bus, seen


@pytest.fixture(autouse=True)
def _restore_current_bus():
    yield
    set_bus(None)


class TestSweepEvents:
    def test_serial_sweep_emits_valid_ordered_log(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=1, bus=bus)
        executor.run(tiny_specs(2))
        assert validate_events(seen) == []
        kinds = [e["kind"] for e in seen]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_finish"
        assert seen[-1]["cache_misses"] == 2
        assert kinds.count("spec_start") == 2
        assert kinds.count("spec_finish") == 2

    def test_pool_sweep_ships_worker_events(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=2, bus=bus)
        executor.run(tiny_specs(2))
        assert validate_events(seen) == []
        starts = [e for e in seen if e["kind"] == "spec_start"]
        finishes = [e for e in seen if e["kind"] == "spec_finish"]
        assert len(starts) == 2 and len(finishes) == 2
        # Worker-side events carry the worker pid and its local seq.
        parent_origin = seen[0]["origin"]
        assert any(e["origin"] != parent_origin for e in starts)
        assert all("worker_seq" in e for e in starts
                   if e["origin"] != parent_origin)
        # Parent-side authoritative finish carries the cycle count.
        assert all(e["cycles"] > 0 for e in finishes)

    def test_cache_hits_emit_events(self, tmp_path):
        bus, seen = observed_bus()
        cache = str(tmp_path / "cache")
        specs = tiny_specs(2)
        ParallelExecutor(jobs=1, cache_dir=cache, bus=bus).run(specs)
        del seen[:]
        ParallelExecutor(jobs=1, cache_dir=cache, bus=bus).run(specs)
        assert validate_events(seen) == []
        kinds = [e["kind"] for e in seen]
        assert kinds == ["sweep_start", "spec_finish", "spec_finish",
                         "sweep_finish"]
        assert (seen[-1]["cache_hits"], seen[-1]["cache_misses"]) == (2, 0)
        finishes = [(e["source"], e["cache_hit"]) for e in seen
                    if e["kind"] == "spec_finish"]
        assert finishes == [("journal", True), ("journal", True)]

    def test_stats_derived_from_events(self, tmp_path):
        bus, _seen = observed_bus()
        cache = str(tmp_path / "cache")
        specs = tiny_specs(2)
        ParallelExecutor(jobs=1, cache_dir=cache, bus=bus).run(specs)
        outcome = ParallelExecutor(jobs=1, cache_dir=cache,
                                   bus=bus).run(specs)
        assert outcome.stats["cache_hits"] == 2
        assert outcome.stats["cache_misses"] == 0
        assert outcome.stats["retries"] == 0

    def test_no_external_bus_leaks_no_events(self):
        """With no bus pinned or current, the executor publishes to the
        null bus: an enabled bus that is not in scope sees nothing, and
        the stats are counted all the same."""
        bus, seen = observed_bus()
        outcome = ParallelExecutor(jobs=1).run(tiny_specs(1))
        assert seen == []
        assert outcome.stats["cache_misses"] == 1
        assert "obsv" not in outcome.stats


class TestProgressAdapter:
    def test_legacy_progress_lines_unchanged(self):
        lines = []
        executor = ParallelExecutor(jobs=1, progress=lines.append)
        specs = tiny_specs(2)
        executor.run(specs)
        assert len(lines) == 2
        assert lines[0].startswith(f"[1/2] {specs[0].describe()} (")
        assert lines[0].endswith("s)")
        assert lines[1].startswith(f"[2/2] {specs[1].describe()} (")

    def test_cached_line_says_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = tiny_specs(1)
        ParallelExecutor(jobs=1, cache_dir=cache).run(specs)
        lines = []
        ParallelExecutor(jobs=1, cache_dir=cache,
                         progress=lines.append).run(specs)
        assert lines == [f"[1/1] {specs[0].describe()} (cached)"]

    def test_lines_and_stats_same_with_a_bus_in_scope(self, tmp_path):
        def sweep(cache):
            lines = []
            outcome = ParallelExecutor(jobs=1, cache_dir=cache,
                                       progress=lines.append).run(specs)
            stats = {key: value for key, value in outcome.stats.items()
                     if key != "elapsed_s"}
            return [re.sub(r"\(\d+\.\ds\)", "(Ns)", line)
                    for line in lines], stats

        specs = tiny_specs(2)
        plain = [sweep(str(tmp_path / "plain")) for _ in range(2)]
        bus, seen = observed_bus()
        with bus_scope(bus):
            watched = [sweep(str(tmp_path / "watched")) for _ in range(2)]
        assert watched == plain
        assert plain[1][1]["cache_hits"] == 2
        finishes = [e for e in seen if e["kind"] == "sweep_finish"]
        assert [(e["cache_hits"], e["cache_misses"]) for e in finishes] \
            == [(0, 2), (2, 0)]

    def test_quarantined_item_reports_an_error_line(self):
        lines = []
        executor = ParallelExecutor(jobs=1, progress=lines.append)
        with pytest.raises(WorkerTaskError, match="item 1 quarantined"):
            executor.map(positive, [1, -1, 2])
        assert lines[0].startswith("[1/3] item 0 (")
        assert lines[1:] == ["[2/3] item 1 (error)"]


class TestMapEvents:
    def test_serial_map_task_events(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=1, bus=bus)
        out = executor.map(abs, [-1, -2, -3])
        assert out == [1, 2, 3]
        finishes = [e for e in seen if e["kind"] == "task_finish"]
        assert [e["index"] for e in finishes] == [0, 1, 2]
        assert all(e["source"] == "serial" for e in finishes)
        assert validate_events(seen) == []

    def test_pool_map_task_events(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=2, bus=bus)
        out = executor.map(abs, [-1, -2, -3, -4])
        assert out == [1, 2, 3, 4]
        finishes = [e for e in seen if e["kind"] == "task_finish"]
        assert sorted(e["index"] for e in finishes) == [0, 1, 2, 3]
        assert validate_events(seen) == []

    def test_map_describe_labels_events(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=1, bus=bus)
        executor.map(abs, [-5], describe=lambda item: f"abs({item})")
        finish = [e for e in seen if e["kind"] == "task_finish"][0]
        assert finish["label"] == "abs(-5)"


class TestPooledEventOrder:
    def test_pooled_map_batched_events_match_inline_per_task(
            self, tmp_path):
        """A worker's task events ride its reply, an error reply's too,
        and are merged just before the task settles, so each task's
        events read as on the inline path: its start, its own events in
        order, then the retry or the finish."""
        logs, outs = {}, {}
        for jobs in (1, 2):
            bus, seen = observed_bus()
            batch = functools.partial(noted_chunk,
                                      str(tmp_path / f"marker{jobs}"))
            outs[jobs] = ParallelExecutor(jobs=jobs, bus=bus).map_batched(
                batch, list(range(10)), key=lambda item: item % 2,
                chunk_size=2)
            assert validate_events(seen) == []
            logs[jobs] = seen
        assert outs[2] == outs[1] == [2 * item for item in range(10)]
        inline = per_task(logs[1])
        assert sorted(inline) == [0, 1, 2, 3, 4, 5]
        assert [e["kind"] for e in inline[1]] == [
            "batch_start", "note", "note", "task_retry",
            "batch_start", "note", "note", "batch_finish"]
        assert per_task(logs[2]) == inline
        worker_kinds = {e["kind"] for e in logs[2]
                        if e["origin"] != os.getpid()}
        assert worker_kinds == {"batch_start", "note"}
