"""Executor-to-bus integration: the sweep's event stream."""

import functools
import os
import re

import pytest

from repro.harness import ParallelExecutor, RunSpec, WorkerTaskError
from repro.obsv.bus import (
    EVENT_KINDS,
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


def noted(item):
    """Double ``item``, narrating it on the current bus."""
    get_bus().emit("note", text=f"item {item}")
    return 2 * item


def noted_batch(chunk):
    return [noted(item) for item in chunk]


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
    """Each task's events, from its first ``task_start`` to its
    ``task_finish``, stripped of :data:`HOST_FIELDS` and keyed by the
    task's index; ``steal`` events, which fall between tasks at times
    the host decides, are left out."""
    tasks, current = {}, None
    for event in events:
        if event["kind"] == "steal":
            continue
        if event["kind"] == "task_start":
            current = tasks.setdefault(event["index"], [])
        if current is not None:
            current.append({key: value for key, value in event.items()
                            if key not in HOST_FIELDS})
        if event["kind"] == "task_finish":
            current = None
    return tasks


def observed(run):
    """``run()``'s value and every event it emitted on a bus in scope."""
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    with bus_scope(bus):
        return run(), seen


def sweep_finish(events):
    [finish] = [e for e in events if e["kind"] == "sweep_finish"]
    return finish


@pytest.fixture(autouse=True)
def _restore_current_bus():
    yield
    set_bus(None)


class TestSweepEvents:
    def test_serial_sweep_emits_valid_ordered_log(self):
        _, seen = observed(lambda: ParallelExecutor(jobs=1).run(
            tiny_specs(2)))
        assert validate_events(seen) == []
        kinds = [e["kind"] for e in seen]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_finish"
        assert seen[-1]["executed"] == 2
        assert kinds.count("task_start") == 2
        assert kinds.count("task_finish") == 2

    def test_pool_sweep_ships_worker_events(self):
        _, seen = observed(lambda: ParallelExecutor(jobs=2).run(
            tiny_specs(2)))
        assert validate_events(seen) == []
        starts = [e for e in seen if e["kind"] == "task_start"]
        finishes = [e for e in seen if e["kind"] == "task_finish"]
        assert len(starts) == 2 and len(finishes) == 2
        # Worker-side events carry the worker pid and its local seq.
        parent_origin = seen[0]["origin"]
        assert any(e["origin"] != parent_origin for e in starts)
        assert all("worker_seq" in e for e in starts
                   if e["origin"] != parent_origin)
        # Parent-side authoritative finish carries the cycle count.
        assert all(e["cycles"] > 0 for e in finishes)

    def test_cache_hits_emit_events(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = tiny_specs(2)
        ParallelExecutor(jobs=1, cache_dir=cache).run(specs)
        _, seen = observed(lambda: ParallelExecutor(
            jobs=1, cache_dir=cache).run(specs))
        assert validate_events(seen) == []
        kinds = [e["kind"] for e in seen]
        assert kinds == ["sweep_start", "task_finish", "task_finish",
                         "sweep_finish"]
        assert (seen[-1]["from_journal"], seen[-1]["executed"]) == (2, 0)
        finishes = [(e["source"], e["attempts"]) for e in seen
                    if e["kind"] == "task_finish"]
        assert finishes == [("journal", 0), ("journal", 0)]

    def test_stats_derived_from_events(self, tmp_path):
        """``sweep_finish`` counts what its ``task_finish`` events say,
        as the executor's own ``stats`` do."""
        cache = str(tmp_path / "cache")
        specs = tiny_specs(2)
        ParallelExecutor(jobs=1, cache_dir=cache).run(specs)
        executor = ParallelExecutor(jobs=1, cache_dir=cache)
        _, seen = observed(lambda: executor.run(specs))
        finish = sweep_finish(seen)
        assert (finish["from_journal"], finish["executed"]) == (2, 0)
        assert finish["retries"] == 0
        assert executor.stats == {"tasks_from_journal": 2,
                                  "tasks_executed": 0}

    def test_no_external_bus_leaks_no_events(self):
        """With no bus current, the executor publishes to the null bus:
        an enabled bus that is not in scope sees nothing, and the
        stats are counted all the same."""
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        executor = ParallelExecutor(jobs=1)
        outcome = executor.run(tiny_specs(1))
        assert seen == []
        assert executor.stats["tasks_executed"] == 1
        assert "executor" not in outcome[0].stats


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

    def test_journal_line_says_journal(self, tmp_path):
        """A task served from the journal reads ``(journal)``, whichever
        method fanned it out."""
        cache = str(tmp_path / "cache")
        specs = tiny_specs(1)
        ParallelExecutor(jobs=1, cache_dir=cache).run(specs)
        ParallelExecutor(jobs=1, cache_dir=cache).map(positive, [3])
        ParallelExecutor(jobs=1, cache_dir=cache).map_batched(
            noted_batch, [1, 2])
        lines = []
        executor = ParallelExecutor(jobs=1, cache_dir=cache,
                                    progress=lines.append)
        executor.run(specs)
        executor.map(positive, [3])
        executor.map_batched(noted_batch, [1, 2])
        assert lines == [f"[1/1] {specs[0].describe()} (journal)",
                         "[1/1] item 0 (journal)",
                         "[1/1] batch 0 (x2) (journal)"]

    def test_lines_and_stats_same_with_a_bus_in_scope(self, tmp_path):
        def sweep(cache):
            lines = []
            executor = ParallelExecutor(jobs=1, cache_dir=cache,
                                        progress=lines.append)
            executor.run(specs)
            return [re.sub(r"\(\d+\.\ds\)", "(Ns)", line)
                    for line in lines], executor.stats

        specs = tiny_specs(2)
        plain = [sweep(str(tmp_path / "plain")) for _ in range(2)]
        watched, seen = observed(
            lambda: [sweep(str(tmp_path / "watched")) for _ in range(2)])
        assert watched == plain
        assert plain[1][1]["tasks_from_journal"] == 2
        finishes = [e for e in seen if e["kind"] == "sweep_finish"]
        assert [(e["from_journal"], e["executed"]) for e in finishes] \
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
        out, seen = observed(lambda: ParallelExecutor(jobs=1).map(
            abs, [-1, -2, -3]))
        assert out == [1, 2, 3]
        finishes = [e for e in seen if e["kind"] == "task_finish"]
        assert [e["index"] for e in finishes] == [0, 1, 2]
        assert all(e["source"] == "serial" for e in finishes)
        assert validate_events(seen) == []

    def test_pool_map_task_events(self):
        out, seen = observed(lambda: ParallelExecutor(jobs=2).map(
            abs, [-1, -2, -3, -4]))
        assert out == [1, 2, 3, 4]
        finishes = [e for e in seen if e["kind"] == "task_finish"]
        assert sorted(e["index"] for e in finishes) == [0, 1, 2, 3]
        assert validate_events(seen) == []

    def test_map_describe_labels_events(self):
        _, seen = observed(lambda: ParallelExecutor(jobs=1).map(
            abs, [-5], describe=lambda item: f"abs({item})"))
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
            batch = functools.partial(noted_chunk,
                                      str(tmp_path / f"marker{jobs}"))
            outs[jobs], seen = observed(
                lambda: ParallelExecutor(jobs=jobs).map_batched(
                    batch, list(range(10)), key=lambda item: item % 2,
                    chunk_size=2))
            assert validate_events(seen) == []
            logs[jobs] = seen
        assert outs[2] == outs[1] == [2 * item for item in range(10)]
        inline = per_task(logs[1])
        assert sorted(inline) == [0, 1, 2, 3, 4, 5]
        assert [e["kind"] for e in inline[1]] == [
            "task_start", "note", "note", "task_retry",
            "task_start", "note", "note", "task_finish"]
        assert inline[1][-1]["attempts"] == 2
        assert per_task(logs[2]) == inline
        worker_kinds = {e["kind"] for e in logs[2]
                        if e["origin"] != os.getpid()}
        assert worker_kinds == {"task_start", "note"}


class TestOneVocabulary:
    """``run``, ``map`` and ``map_batched`` narrate every task one way:
    ``task_start`` where it runs, its own events, then ``task_finish``
    in the parent -- the same inline and pooled, apart from where and
    when each event was stamped."""

    #: (method, tasks, each task's own event kinds)
    METHODS = (("run", 2, []), ("map", 3, ["note"]),
               ("map_batched", 2, ["note"] * 3))

    @staticmethod
    def narrate(jobs):
        """One log per method: two specs, three items, six items in two
        chunks."""
        executor = ParallelExecutor(jobs=jobs)
        logs = []
        for fan_out in (lambda: executor.run(tiny_specs(2)),
                        lambda: executor.map(noted, [1, 2, 3]),
                        lambda: executor.map_batched(
                            noted_batch, list(range(6)), chunk_size=3)):
            _, seen = observed(fan_out)
            assert validate_events(seen) == []
            logs.append(seen)
        return logs

    def test_every_task_reads_start_own_events_finish(self):
        inline, pooled = self.narrate(1), self.narrate(2)
        for (method, count, own), log in zip(self.METHODS, inline):
            tasks = per_task(log)
            assert sorted(tasks) == list(range(count)), method
            for events in tasks.values():
                assert [e["kind"] for e in events] == \
                    ["task_start", *own, "task_finish"], method
                start, finish = events[0], events[-1]
                assert finish["label"] == start["label"]
                assert finish["attempts"] == 1
            starts = sum(e["kind"] == "task_start" for e in log)
            assert starts == count, method
        assert [per_task(log) for log in pooled] == \
            [per_task(log) for log in inline]
        assert any(e["origin"] != os.getpid() for log in pooled
                   for e in log if e["kind"] == "task_start")

    def test_what_is_special_rides_task_finish(self):
        """A spec's finish adds its ``cycles``, a chunk's start and
        finish its ``size``; nothing else differs between methods."""
        run, items, chunks = self.narrate(1)
        assert all(e["cycles"] > 0 for e in run
                   if e["kind"] == "task_finish")
        assert [e["size"] for e in chunks
                if e["kind"] in ("task_start", "task_finish")] == [3] * 4
        assert not [e for e in items if "size" in e or "cycles" in e]

    def test_no_spec_or_batch_event_kinds(self):
        assert not [kind for kind in EVENT_KINDS
                    if kind.startswith(("spec_", "batch_"))]
