"""Batched-vs-serial campaign equivalence (the tentpole invariant).

Cell-affine batching with resident warm systems changes *where* trials
run and *what they cost* -- never what they produce.  This suite pins
that down three ways: every trial dict byte-identical between
:func:`run_trial` and :func:`run_trial_batch`, whole
:class:`CampaignReport` JSON (minus timing/stats) byte-identical across
``jobs=1`` / pooled trial-at-a-time / batched execution, and the
damaged-store fixture degrading both paths to the same cold outcome
with a structured ``cold_fallback`` event.  No outcome names its start;
``snapshot_restore`` events do.
"""

import json
from dataclasses import replace

import pytest

from repro.harness import ParallelExecutor
from repro.obsv.bus import EventBus, set_bus, validate_events
from repro.snapshot import SnapshotStore
from repro.validation import campaign
from repro.validation.campaign import (TrialSpec, _RESIDENT_CELLS,
                                       _cell_index_name, profile_cell,
                                       run_campaign, run_trial,
                                       run_trial_batch)

GRID = dict(planner="stratified", fault="torn-log", budget=5, seed=42,
            n_threads=2, fases_per_thread=6, snapshot_rungs=4)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Resident systems persist per process; equivalence tests must not
    inherit another test's live runs."""
    _RESIDENT_CELLS.clear()
    yield
    _RESIDENT_CELLS.clear()
    set_bus(None)


@pytest.fixture
def warm_cell(tmp_path):
    spec = TrialSpec(workload="hashmap", design="PMEM-Spec", n_threads=2,
                     fases_per_thread=6, seed=11, snapshot_every=6,
                     snapshot_dir=str(tmp_path / "snaps"))
    return spec, profile_cell(spec)


def canonical(report):
    """Report JSON minus timing/stats and store-location params."""
    payload = report.to_dict()
    payload.pop("elapsed_s")
    payload["params"] = {k: v for k, v in payload["params"].items()
                        if k not in ("batch", "snapshot_dir")}
    for cell in payload["cells"]:
        for failure in cell["failures"]:
            failure["spec"] = {k: v for k, v in failure["spec"].items()
                              if k != "snapshot_dir"}
    return json.dumps(payload, sort_keys=True)


def watch():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    set_bus(bus)
    return seen


def starts(seen):
    """(source, rung restored) of each ``snapshot_restore`` event."""
    return [(e["source"], e["rung"]) for e in seen
            if e["kind"] == "snapshot_restore"]


class TestTrialDictEquivalence:
    def test_batch_equals_serial_per_trial(self, warm_cell):
        spec, profile = warm_cell
        step = max(1, profile.total_cycles // 6)
        specs = [replace(spec, crash_cycle=cycle)
                 for cycle in range(1, profile.total_cycles, step)]
        specs.append(specs[len(specs) // 2])   # resident-LRU repeat
        assert run_trial_batch(specs) == [run_trial(s) for s in specs]

    def test_batch_mixed_cells(self, warm_cell, tmp_path):
        spec_a, profile = warm_cell
        spec_b = TrialSpec(workload="queue", design="IntelX86",
                           n_threads=2, fases_per_thread=6, seed=11)
        crash = profile.total_cycles // 2
        specs = [replace(spec_a, crash_cycle=crash),
                 replace(spec_b, crash_cycle=2000),
                 replace(spec_a, crash_cycle=crash + 1)]
        assert run_trial_batch(specs) == [run_trial(s) for s in specs]

    def test_forward_trials_on_one_image_share_its_verdict(
            self, monkeypatch):
        """Cuts between two persists leave one persisted image: the
        cell recovers and validates it once, and every outcome -- each
        structural violation's cycle included -- still equals
        run_trial's."""
        spec = TrialSpec(workload="hashmap", design="IntelX86",
                         fault="torn-log", n_threads=2,
                         fases_per_thread=6, seed=11)
        specs = [replace(spec, crash_cycle=cycle)
                 for cycle in range(850, 931, 3)]
        judged = []
        judge_image = campaign._judge_image

        def recording(trial, *args):
            judged.append(trial.crash_cycle)
            return judge_image(trial, *args)

        monkeypatch.setattr(campaign, "_judge_image", recording)
        outcomes = run_trial_batch(specs)
        reused = [outcome for outcome in outcomes
                  if outcome["crash_cycle"] not in judged]
        assert any(outcome["violations"] for outcome in reused)
        assert outcomes == [run_trial(s) for s in specs]
        for outcome in outcomes:
            assert {violation["cycle"]
                    for violation in outcome["violations"]
                    if violation["kind"] == "structural"} <= \
                {outcome["crash_cycle"]}

    def test_no_snapshot_cell_is_served_cold(self):
        spec = TrialSpec(workload="queue", design="PMEM-Spec",
                         n_threads=2, fases_per_thread=6, seed=7)
        specs = [replace(spec, crash_cycle=c) for c in (500, 1500, 500)]
        seen = watch()
        outcomes = run_trial_batch(specs)
        assert starts(seen) == [("cold", None), ("forward", None),
                                ("cold", None)]
        assert outcomes == [run_trial(s) for s in specs]


def run_modes(tmp_path, **overrides):
    kw = dict(GRID)
    kw.update(overrides)
    reports = {}
    for mode, (executor, batch) in {
            "serial": (None, 0),
            "pooled": (ParallelExecutor(jobs=2), 0),
            "batched-serial": (ParallelExecutor(jobs=1), 3),
            "batched-pool": (ParallelExecutor(jobs=2), 3)}.items():
        _RESIDENT_CELLS.clear()
        reports[mode] = run_campaign(
            ["hashmap"], ["PMEM-Spec", "IntelX86"],
            snapshot_dir=str(tmp_path / mode), executor=executor,
            batch=batch, **kw)
    return reports


class TestCampaignReportEquivalence:
    def test_reports_byte_identical_across_modes(self, tmp_path):
        reports = run_modes(tmp_path)
        reference = canonical(reports["serial"])
        assert reports["serial"].total_trials > 0
        assert reports["serial"].total_failures > 0  # torn-log bites
        for mode, report in reports.items():
            assert canonical(report) == reference, mode

    def test_batched_records_batch_param(self, tmp_path):
        report = run_campaign(
            ["queue"], ["PMEM-Spec"], planner="stratified",
            fault="power-cut", budget=3, seed=42, n_threads=2,
            fases_per_thread=6, shrink=False,
            executor=ParallelExecutor(jobs=1), batch=2)
        assert report.params["batch"] == 2


class TestDamagedStoreFallback:
    def _damage(self, spec):
        store = SnapshotStore(spec.snapshot_dir)
        for rung in store.load_index(_cell_index_name(spec)):
            path = store._object_path(rung["key"])
            with open(path, "r+b") as handle:
                handle.truncate(16)

    def test_batched_damage_equals_serial_damage(self, warm_cell):
        spec, profile = warm_cell
        crash = profile.total_cycles // 2
        self._damage(spec)
        specs = [replace(spec, crash_cycle=crash),
                 replace(spec, crash_cycle=crash + 1)]
        seen = watch()
        serial = [run_trial(s) for s in specs]
        _RESIDENT_CELLS.clear()
        batched = run_trial_batch(specs)
        assert batched == serial
        assert starts(seen) == [("cold", None)] * 3 + [("forward", None)]

    def test_cold_fallback_emits_structured_event(self, warm_cell):
        spec, profile = warm_cell
        self._damage(spec)
        seen = watch()
        run_trial(replace(spec, crash_cycle=profile.total_cycles // 2))
        assert validate_events(seen) == []
        falls = [e for e in seen if e["kind"] == "snapshot_restore"]
        assert len(falls) == 1
        assert falls[0]["outcome"] == "cold_fallback"
        assert falls[0]["rung_cycle"] is None
        assert "corrupt" in falls[0]["error"]

    def test_batched_cold_fallback_emits_event_too(self, warm_cell):
        spec, profile = warm_cell
        self._damage(spec)
        seen = watch()
        run_trial_batch([replace(spec,
                                 crash_cycle=profile.total_cycles // 2)])
        falls = [e for e in seen if e.get("outcome") == "cold_fallback"]
        assert len(falls) == 1


class TestRestoreSourceEvents:
    def test_batched_trials_attribute_their_restores(self, warm_cell):
        spec, profile = warm_cell
        crash = profile.total_cycles // 2
        seen = watch()
        run_trial_batch([replace(spec, crash_cycle=crash),
                         replace(spec, crash_cycle=crash),   # live run
                         replace(spec, crash_cycle=1)])      # pre-rung
        sources = [source for source, _rung in starts(seen)]
        assert sources == ["store", "forward", "cold"]
