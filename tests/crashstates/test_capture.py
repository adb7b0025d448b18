"""The checker captures only the rungs it restores, and that changes
nothing: every crash cycle restores the rung a capture-all ladder of the
same cell would have served, byte for byte."""

import pytest

import repro.crashstates.checker as checker
from repro.crashstates.checker import check_cell
from repro.snapshot import nearest_rung
from repro.validation.campaign import TrialSpec, _build

#: Sparser than the cells' rungs, so the capture-all ladder reaches
#: rungs below the last restored one that no cycle restores.
CYCLES = range(500, 9500, 2000)


@pytest.mark.parametrize("workload,design", [
    ("hashmap", "PMEM-Spec"), ("hashmap", "IntelX86"), ("queue", "DPO")])
@pytest.mark.parametrize("fault", ["power-cut", "torn-log"])
def test_checker_restores_what_a_capture_all_ladder_would(
        workload, design, fault, monkeypatch):
    spec = TrialSpec(workload=workload, design=design, fault=fault,
                     n_threads=2, fases_per_thread=10, snapshot_every=3,
                     seed=42)
    cells = []
    real_cell = checker._Cell

    def recording_cell(*args, **kwargs):
        cells.append(real_cell(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(checker, "_Cell", recording_cell)
    report = check_cell(spec, CYCLES, image_budget=16, shrink=True)
    (cell,) = cells

    # The checker's canonical run before targeted capture: every rung,
    # device history on (history is captured state, so it is part of
    # every rung's fingerprint).
    _, system, _, _, full = _build(spec, capture=True)
    system.device.record_history = True
    system.run()

    assert report["cycles_checked"] == len(CYCLES)
    restored = set()
    for payload in report["cycles"]:
        rung = nearest_rung(full.rungs, payload["crash_cycle"])
        assert payload["restored_from"] == (
            rung["cycle"] if rung is not None else None)
        if rung is not None:
            restored.add(rung["rung"])
    assert report["restored_cycles"] > 0

    # Exactly the rungs the requested cycles restore, at most one per
    # cycle.  The ladder reached unrestored rungs below the last of
    # them, so capturing every rung up to it would show here.
    fingerprints = {rung["rung"]: rung["fingerprint"] for rung in full.rungs}
    assert {rung["rung"] for rung in cell.rungs} == restored
    assert len(cell.rungs) <= len(CYCLES)
    assert [rung["rung"] for rung in full.rungs
            if rung["rung"] < max(restored) and rung["rung"] not in restored]
    for rung in cell.rungs:
        assert rung["fingerprint"] == fingerprints[rung["rung"]]
    # Torn-log cells fail, so shrinking's backward probes ran too.
    assert (report["shrink"] is not None) == (fault == "torn-log")
