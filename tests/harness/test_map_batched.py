"""ParallelExecutor.map_batched: grouping, ordering, events, failure
handling.  The batched fan-out must be a drop-in for ``map`` apart from
how work is shipped: same results, same order, per-chunk retry."""

import pytest

from repro.harness import ParallelExecutor
from repro.obsv.bus import EventBus, set_bus, validate_events


def double_all(chunk):
    return [2 * item for item in chunk]


def parity(item):
    return item % 2


def boom_on_odd_batch(chunk):
    if any(item % 2 for item in chunk):
        raise RuntimeError("odd batch")
    return list(chunk)


def wrong_length(chunk):
    return list(chunk)[:-1]


@pytest.fixture(autouse=True)
def _restore_current_bus():
    yield
    set_bus(None)


def observed_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    return bus, seen


class TestResults:
    def test_results_in_input_order(self):
        executor = ParallelExecutor(jobs=1)
        items = [5, 2, 9, 4, 7, 0]  # parity-interleaved on purpose
        assert executor.map_batched(double_all, items, key=parity) == \
            [10, 4, 18, 8, 14, 0]

    def test_pool_matches_serial(self):
        items = list(range(23))
        serial = ParallelExecutor(jobs=1).map_batched(
            double_all, items, key=parity, chunk_size=4)
        pooled = ParallelExecutor(jobs=2).map_batched(
            double_all, items, key=parity, chunk_size=4)
        assert serial == pooled == [2 * n for n in items]

    def test_no_key_single_group(self):
        executor = ParallelExecutor(jobs=1)
        assert executor.map_batched(double_all, [1, 2, 3]) == [2, 4, 6]

    def test_empty_items(self):
        assert ParallelExecutor(jobs=1).map_batched(double_all, []) == []

    def test_wrong_result_length_raises(self):
        with pytest.raises(RuntimeError, match="2-item batch"):
            ParallelExecutor(jobs=1).map_batched(wrong_length, [1, 2])


class TestChunking:
    def test_chunk_size_bounds_batches(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=1, bus=bus)
        executor.map_batched(double_all, list(range(10)), chunk_size=4)
        sizes = [e["size"] for e in seen if e["kind"] == "batch_finish"]
        assert sizes == [4, 4, 2]

    def test_groups_never_share_a_chunk(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=1, bus=bus)
        items = [0, 1, 0, 1, 0]
        executor.map_batched(double_all, items, key=parity)
        sizes = sorted(e["size"] for e in seen
                       if e["kind"] == "batch_finish")
        assert sizes == [2, 3]


class TestEvents:
    def test_serial_emits_batch_finish_only(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=1, bus=bus)
        executor.map_batched(double_all, list(range(6)), chunk_size=3,
                             describe=lambda chunk: f"x{len(chunk)}")
        assert validate_events(seen) == []
        finishes = [e for e in seen if e["kind"] == "batch_finish"]
        assert [e["label"] for e in finishes] == ["x3", "x3"]
        assert all(e["source"] == "serial" for e in finishes)

    def test_pool_ships_batch_start_from_workers(self):
        bus, seen = observed_bus()
        executor = ParallelExecutor(jobs=2, bus=bus)
        executor.map_batched(double_all, list(range(8)), chunk_size=2)
        assert validate_events(seen) == []
        starts = [e for e in seen if e["kind"] == "batch_start"]
        finishes = [e for e in seen if e["kind"] == "batch_finish"]
        assert len(starts) == 4 and len(finishes) == 4
        parent_origin = finishes[0]["origin"]
        assert any(e["origin"] != parent_origin for e in starts)

    def test_progress_counts_batches(self):
        lines = []
        executor = ParallelExecutor(jobs=1, progress=lines.append)
        executor.map_batched(double_all, list(range(6)), chunk_size=2)
        assert len(lines) == 3
        assert lines[-1].startswith("[3/3]")


class TestFailureHandling:
    def test_worker_failure_retries_chunk_serially(self):
        # boom_on_odd_batch fails on every attempt the policy allows, so
        # the error must surface with the worker traceback attached.
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(RuntimeError, match="quarantined after 2 attempt"):
            executor.map_batched(boom_on_odd_batch, [1, 3, 2, 4],
                                 key=parity, chunk_size=2)

    def test_serial_failure_propagates(self):
        executor = ParallelExecutor(jobs=1)
        with pytest.raises(RuntimeError, match="odd batch"):
            executor.map_batched(boom_on_odd_batch, [1, 3])
