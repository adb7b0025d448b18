"""One trial path: every outcome a resident cell serves equals run_trial.

A :class:`_ResidentCell` serves each trial of a cell from the latest of
its live run, the nearest usable rung, or a fresh build.  This suite
holds it to :func:`run_trial`, the fresh-build definition of a trial,
for every fault model on four cells (unladdered, laddered, and
laddered with truncated store objects, profiled through
``profile_cell`` or through ``profile_cell_seeding`` in the serving
process), with crash cycles served ascending, descending, and shuffled
with repeats through one cell.  It also pins the mechanism: which
starts are taken and what each one costs.
"""

import random
from dataclasses import replace

import pytest

from repro.obsv.bus import EventBus, set_bus, validate_events
from repro.snapshot import SnapshotStore
from repro.system import System
from repro.validation import campaign
from repro.validation.campaign import (TrialSpec, _RESIDENT_CELLS,
                                       _ResidentCell, _cell_index_name,
                                       profile_cell, profile_cell_seeding,
                                       run_trial)
from repro.validation.faults import FAULT_NAMES

BASE = TrialSpec(workload="hashmap", design="PMEM-Spec", n_threads=2,
                 fases_per_thread=6, seed=11)
#: ``seeded-truncated`` profiles through the name the benchmark's layer
#: spans patch, in the process that then serves the trials, as a
#: campaign run with ``--jobs 1`` does.
KINDS = ("unladdered", "laddered", "truncated", "seeded-truncated")


@pytest.fixture(autouse=True)
def _fresh_caches():
    _RESIDENT_CELLS.clear()
    yield
    _RESIDENT_CELLS.clear()
    set_bus(None)


def make_cell(kind, fault, tmp_path):
    """(spec, crash cycles) for one cell; laddered kinds fill a store."""
    spec = replace(BASE, fault=fault)
    if kind != "unladdered":
        spec = replace(spec, snapshot_every=6,
                       snapshot_dir=str(tmp_path / "snaps"))
    if kind == "seeded-truncated":
        profile = profile_cell_seeding(spec)
    else:
        profile = profile_cell(spec)
    if kind.endswith("truncated"):
        store = SnapshotStore(spec.snapshot_dir)
        rungs = store.load_index(_cell_index_name(spec))
        assert rungs
        for rung in rungs:
            with open(store._object_path(rung["key"]), "r+b") as handle:
                handle.truncate(16)
    # Before the first rung, persist boundaries (where torn-log bites),
    # mid-run, and well past the end of even a fault-perturbed run.
    total = profile.total_cycles
    cycles = sorted({1, *profile.persist_cycles[::3], total // 2,
                     2 * total})
    return spec, cycles


def orders(cycles):
    shuffled = cycles + cycles[1::2]
    random.Random(3).shuffle(shuffled)
    return {"ascending": sorted(cycles),
            "descending": sorted(cycles, reverse=True),
            "shuffled-with-repeats": shuffled}


def watch():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    set_bus(bus)
    return seen


def restore_sources(seen):
    return [event["source"] for event in seen
            if event["kind"] == "snapshot_restore"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fault", FAULT_NAMES)
def test_every_start_equals_run_trial(kind, fault, tmp_path):
    spec, cycles = make_cell(kind, fault, tmp_path)
    reference = {cycle: run_trial(replace(spec, crash_cycle=cycle))
                 for cycle in cycles}
    if kind != "laddered":
        assert all(outcome["restored_from_cycle"] is None
                   for outcome in reference.values())
    if fault == "torn-log":
        assert not all(outcome["consistent"]
                       for outcome in reference.values())
    for name, order in orders(cycles).items():
        cell = _ResidentCell(spec)
        served = [cell.run_trial(replace(spec, crash_cycle=cycle))
                  for cycle in order]
        assert served == [reference[cycle] for cycle in order], name


def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_ascending_unladdered_cycles_build_once_and_never_snapshot(
        monkeypatch, tmp_path):
    spec, cycles = make_cell("unladdered", "power-cut", tmp_path)
    counts = {}
    count_calls(monkeypatch, campaign, "_build", counts)
    count_calls(monkeypatch, System, "capture_state", counts)
    count_calls(monkeypatch, System, "restore_state", counts)
    seen = watch()
    cell = _ResidentCell(spec)
    for cycle in sorted(cycles):
        cell.run_trial(replace(spec, crash_cycle=cycle))
    assert counts == {"_build": 1}
    assert restore_sources(seen) == ["cold"] + ["forward"] * (
        len(cycles) - 1)


@pytest.mark.parametrize("kind", ("unladdered", "laddered"))
def test_virtual_misspec_never_continues_a_live_run(monkeypatch, kind,
                                                    tmp_path):
    spec, cycles = make_cell(kind, "virtual-misspec", tmp_path)
    counts = {}
    count_calls(monkeypatch, campaign, "_build", counts)
    seen = watch()
    cell = _ResidentCell(spec)
    for cycle in sorted(cycles):
        cell.run_trial(replace(spec, crash_cycle=cycle))
    sources = restore_sources(seen)
    assert len(sources) == len(cycles)
    assert "forward" not in sources
    if kind == "unladdered":
        assert counts["_build"] == len(cycles)


def test_every_rung_lookup_reads_the_store(monkeypatch, tmp_path):
    # No rung bytes outlive a trial: each trial reads and hash-checks
    # its nearest rung, ``forward`` trials included, and starts from the
    # live run, a stored rung or a fresh build.
    spec, cycles = make_cell("laddered", "power-cut", tmp_path)
    rungs = SnapshotStore(spec.snapshot_dir).load_index(
        _cell_index_name(spec))
    counts = {}
    count_calls(monkeypatch, SnapshotStore, "get", counts)
    seen = watch()
    with_rung = 0
    for order in orders(cycles).values():
        cell = _ResidentCell(spec)
        for cycle in order:
            cell.run_trial(replace(spec, crash_cycle=cycle))
            with_rung += any(rung["cycle"] <= cycle for rung in rungs)
    assert set(restore_sources(seen)) == {"forward", "store", "cold"}
    assert counts["get"] == with_rung


def test_an_ascending_cell_shares_one_history(tmp_path):
    # Each rung the ascending live run restarts from keeps the live
    # run's converted history: its trials hold one set of
    # HistoryEvents, not one per rung.
    spec, cycles = make_cell("laddered", "power-cut", tmp_path)
    seen = watch()
    cell = _ResidentCell(spec)
    histories = []
    for cycle in sorted(cycles):
        cell.run_trial(replace(spec, crash_cycle=cycle))
        histories.append(cell._history[1])
    assert restore_sources(seen).count("store") > 2
    distinct = {id(event) for history in histories for event in history}
    assert len(distinct) <= max(map(len, histories))


def test_cold_fallback_trial_emits_one_restore_event(tmp_path):
    spec, cycles = make_cell("truncated", "power-cut", tmp_path)
    seen = watch()
    cell = _ResidentCell(spec)
    middle = cycles[len(cycles) // 2]
    for cycle in (middle, middle + 1):
        cell.run_trial(replace(spec, crash_cycle=cycle))
    assert validate_events(seen) == []
    restores = [event for event in seen
                if event["kind"] == "snapshot_restore"]
    # One event per trial: the start taken, marked as a fallback.
    assert [event["source"] for event in restores] == ["cold", "forward"]
    for event in restores:
        assert event["outcome"] == "cold_fallback"
        assert event["rung_cycle"] is None
        assert "corrupt" in event["error"]


def test_a_trial_that_raises_evicts_its_cell(monkeypatch):
    # A failure inside the simulator leaves the cell's live run half
    # advanced; an in-process retry (the inline pool's) must not
    # continue from it.
    from repro.mem.pm_controller import PMController
    spec = TrialSpec(workload="hashmap", design="PMEM-Spec", n_threads=2,
                     fases_per_thread=10, seed=42)
    early, late = replace(spec, crash_cycle=864), replace(
        spec, crash_cycle=4080)
    reference = run_trial(late)
    campaign.run_trial_batch([early])

    original = PMController.accept_persist
    calls = []

    def fails_once(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected persist failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PMController, "accept_persist", fails_once)
    with pytest.raises(RuntimeError, match="injected"):
        campaign.run_trial_batch([late])
    monkeypatch.setattr(PMController, "accept_persist", original)
    assert campaign.run_trial_batch([late]) == [reference]


def test_a_campaign_names_each_resident_cell_once(monkeypatch):
    # Resident cells are keyed by their spec, so a trial costs no
    # hash of the cell identity; the rung-index name is computed once
    # per cell, when the cell is created.
    counts = {}
    count_calls(monkeypatch, campaign, "_cell_index_name", counts)
    report = campaign.run_campaign(["hashmap", "queue"],
                                   ["PMEM-Spec", "IntelX86"], budget=6,
                                   fases_per_thread=6, seed=42)
    assert report.total_trials > len(report.cells) == 4
    assert counts == {"_cell_index_name": 4}
