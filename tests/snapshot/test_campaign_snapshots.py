"""Snapshot-accelerated campaigns: warm trials equal cold trials, and a
damaged store degrades to a cold start instead of changing outcomes.
Outcomes never say where a trial started; its ``snapshot_restore``
event does."""

import os
from dataclasses import replace

import pytest

from repro.obsv.bus import EventBus, set_bus
from repro.snapshot import SnapshotStore
from repro.validation.campaign import (TrialSpec, _cell_index_name,
                                       profile_cell, run_trial,
                                       verify_cell)


@pytest.fixture
def warm_cell(tmp_path):
    """A profiled hashmap/PMEM-Spec cell with rungs on disk."""
    spec = TrialSpec(workload="hashmap", design="PMEM-Spec", n_threads=2,
                     fases_per_thread=6, seed=11, snapshot_every=6,
                     snapshot_dir=str(tmp_path / "snaps"))
    profile = profile_cell(spec)
    return spec, profile


@pytest.fixture
def starts():
    """The ``snapshot_restore`` events of the trials a test runs."""
    seen = []

    def record(event):
        if event["kind"] == "snapshot_restore":
            seen.append(event)
    bus = EventBus()
    bus.subscribe(record)
    set_bus(bus)
    yield seen
    set_bus(None)


def _strip(outcome):
    outcome = dict(outcome)
    outcome["spec"] = {k: v for k, v in outcome["spec"].items()
                       if k != "snapshot_dir"}
    return outcome


def _started(starts, source):
    """The one start narrated so far, which must be ``source``;
    clears the list for the next trial."""
    (event,) = starts
    assert event["source"] == source
    starts.clear()
    return event


class TestWarmTrialParity:
    def test_warm_equals_cold(self, warm_cell, starts):
        spec, profile = warm_cell
        crash = profile.total_cycles // 2
        cold_spec = replace(spec, snapshot_dir=None, crash_cycle=crash)
        warm = run_trial(replace(spec, crash_cycle=crash))
        assert _started(starts, "store")["rung_cycle"] <= crash
        cold = run_trial(cold_spec)
        _started(starts, "cold")
        assert _strip(warm) == _strip(cold)

    def test_early_crash_runs_cold(self, warm_cell, starts):
        spec, _profile = warm_cell
        run_trial(replace(spec, crash_cycle=1))
        assert _started(starts, "cold")["rung"] is None

    def test_trial_without_store_is_cold(self, warm_cell, starts):
        spec, profile = warm_cell
        run_trial(replace(spec, snapshot_dir=None,
                          crash_cycle=profile.total_cycles // 2))
        assert _started(starts, "cold")["rung"] is None


class TestStoreDamageFallback:
    def test_missing_index_falls_back_cold(self, warm_cell, starts):
        spec, profile = warm_cell
        crash = profile.total_cycles // 2
        reference = _strip(run_trial(replace(
            spec, snapshot_dir=None, crash_cycle=crash)))
        store = SnapshotStore(spec.snapshot_dir)
        os.unlink(store._index_path(_cell_index_name(spec)))
        starts.clear()
        outcome = run_trial(replace(spec, crash_cycle=crash))
        assert _started(starts, "cold")["outcome"] == "cold_fallback"
        assert _strip(outcome) == reference

    def test_truncated_object_falls_back_cold(self, warm_cell, starts):
        spec, profile = warm_cell
        crash = profile.total_cycles // 2
        reference = _strip(run_trial(replace(
            spec, snapshot_dir=None, crash_cycle=crash)))
        store = SnapshotStore(spec.snapshot_dir)
        for rung in store.load_index(_cell_index_name(spec)):
            path = store._object_path(rung["key"])
            with open(path, "r+b") as handle:
                handle.truncate(16)
        starts.clear()
        outcome = run_trial(replace(spec, crash_cycle=crash))
        event = _started(starts, "cold")
        assert event["rung"] is None and "corrupt" in event["error"]
        assert _strip(outcome) == reference


class TestVerifyCell:
    def test_healthy_ladder_verifies(self, warm_cell):
        spec, _profile = warm_cell
        outcome = verify_cell(spec)
        assert outcome["ok"]
        assert all(check["fingerprint_ok"]
                   for check in outcome["checks"])

    def test_damaged_rung_fails_its_check_and_the_rest_still_run(
            self, warm_cell):
        spec, _profile = warm_cell
        store = SnapshotStore(spec.snapshot_dir)
        rungs = store.load_index(_cell_index_name(spec))
        assert len(rungs) > 1
        path = store._object_path(rungs[0]["key"])
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        outcome = verify_cell(spec)
        assert not outcome["ok"]
        damaged, *rest = outcome["checks"]
        assert damaged["rung"] == rungs[0]["rung"]
        assert damaged["fingerprint_ok"] is False
        assert "corrupt" in damaged["error"]
        assert len(rest) == len(rungs) - 1
        assert all(check["fingerprint_ok"] and "error" not in check
                   for check in rest)

    def test_verify_requires_snapshot_config(self):
        spec = TrialSpec(workload="queue", design="PMEM-Spec",
                         n_threads=2, fases_per_thread=4)
        with pytest.raises(ValueError, match="snapshot"):
            verify_cell(spec)


class TestBuildCaches:
    """The per-cell program cache and the lowering cache must keep
    trials pure functions of their spec: no order dependence, no
    warm-vs-fresh divergence."""

    SPEC = TrialSpec(workload="queue", design="IntelX86", n_threads=2,
                     fases_per_thread=8, seed=7, crash_cycle=2000)

    def test_trials_are_order_independent(self):
        first = run_trial(self.SPEC)
        run_trial(replace(self.SPEC, crash_cycle=4000))
        assert run_trial(self.SPEC) == first

    def test_warm_caches_match_fresh_caches(self):
        from repro.compiler.lowering import clear_lowered_memo
        from repro.validation.campaign import _PROGRAM_CACHE
        warm = run_trial(self.SPEC)
        for _workload, program in _PROGRAM_CACHE.values():
            clear_lowered_memo(program)
        _PROGRAM_CACHE.clear()
        assert run_trial(self.SPEC) == warm


class TestSpecValidation:
    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            TrialSpec(workload="queue", design="PMEM-Spec",
                      snapshot_every=-1)

    def test_cell_index_excludes_crash_cycle_and_dir(self):
        a = TrialSpec(workload="queue", design="PMEM-Spec",
                      crash_cycle=10, snapshot_every=5, snapshot_dir="/x")
        b = TrialSpec(workload="queue", design="PMEM-Spec",
                      crash_cycle=99, snapshot_every=5, snapshot_dir="/y")
        assert _cell_index_name(a) == _cell_index_name(b)

    def test_cell_index_depends_on_interval(self):
        a = TrialSpec(workload="queue", design="PMEM-Spec",
                      snapshot_every=5)
        b = TrialSpec(workload="queue", design="PMEM-Spec",
                      snapshot_every=10)
        assert _cell_index_name(a) != _cell_index_name(b)
