"""Campaign engine: trials, profiling, fault injection, shrinking, and
the report artifact -- including the deliberate-bug acceptance fixture
(a torn undo log must be caught, shrunk, and named in the report)."""

import json

import pytest

from repro.validation import (
    DEFAULT_FAULTS,
    CampaignReport,
    TrialSpec,
    fault_by_name,
    profile_cell,
    run_campaign,
    run_trial,
)
from repro.validation.campaign import report_fingerprint

CELL = dict(workload="array_swaps", design="PMEM-Spec")


def test_trial_spec_validates_names():
    with pytest.raises(ValueError):
        TrialSpec(workload="nope", design="PMEM-Spec")
    with pytest.raises(ValueError):
        TrialSpec(workload="array_swaps", design="PMEM-Speculative")
    with pytest.raises(ValueError):
        TrialSpec(workload="array_swaps", design="PMEM-Spec",
                  fault="gamma-ray")


@pytest.mark.parametrize("fault", DEFAULT_FAULTS)
def test_default_faults_keep_recovery_consistent(fault):
    """Every stock fault model, injected mid-run, must recover clean:
    these are the campaign's steady-state expectation."""
    outcome = run_trial(TrialSpec(fault=fault, crash_cycle=900, **CELL))
    assert outcome["consistent"], outcome["violations"]
    assert outcome["history_events"] > 0
    assert outcome["spec"]["fault"] == fault


def test_virtual_misspec_runs_to_completion():
    """A misspeculation is a *virtual* power failure (§4.4): the machine
    stays on and the runtime's abort/retry carries the run to a clean
    finish, so the horizon extends past the injection cycle."""
    outcome = run_trial(TrialSpec(fault="virtual-misspec",
                                  crash_cycle=900, **CELL))
    assert outcome["consistent"]
    assert outcome["horizon"] > 900


def test_profile_cell_exposes_run_structure():
    profile = profile_cell(TrialSpec(**CELL))
    assert profile.total_cycles > 0
    assert profile.fase_intervals and profile.commit_cycles
    assert profile.issue_end <= profile.total_cycles
    assert profile.persist_cycles == sorted(set(profile.persist_cycles))
    assert profile.persist_cycles[-1] <= profile.total_cycles


def test_fault_registry_round_trips():
    for name in DEFAULT_FAULTS + ("torn-log",):
        assert fault_by_name(name).name == name
    with pytest.raises(KeyError):
        fault_by_name("cosmic")


def test_power_cut_campaign_is_clean():
    report = run_campaign(["queue"], ["IntelX86", "PMEM-Spec"],
                          planner="stratified", budget=8, shrink=True)
    assert report.consistent
    assert report.total_trials > 0
    assert report.violation_kinds() == []
    rows = report.rows()
    assert {row["design"] for row in rows} == {"IntelX86", "PMEM-Spec"}
    assert all(row["failures"] == 0 for row in rows)


def test_campaigns_are_reproducible():
    kwargs = dict(planner="stratified", budget=6, shrink=False)
    first = run_campaign(["array_swaps"], ["PMEM-Spec"], **kwargs)
    second = run_campaign(["array_swaps"], ["PMEM-Spec"], **kwargs)
    crash_cycles = lambda report: [  # noqa: E731
        failure["crash_cycle"] for cell in report.cells
        for failure in cell["failures"]]
    assert first.total_trials == second.total_trials
    assert crash_cycles(first) == crash_cycles(second)
    assert first.cells[0]["trials"] == second.cells[0]["trials"]


def test_store_location_does_not_change_the_fingerprint(tmp_path):
    """Identical laddered campaigns in two snapshot directories: the
    directory rides in ``params`` and in every failure's spec, and
    neither the report's fingerprint nor its reloaded JSON's may see
    it."""
    kwargs = dict(planner="stratified", fault="torn-log", budget=5,
                  fases_per_thread=6, snapshot_rungs=4, shrink=False)
    first, second = (
        run_campaign(["hashmap"], ["IntelX86"],
                     snapshot_dir=str(tmp_path / name), **kwargs)
        for name in ("a", "b"))
    assert first.total_failures > 0
    assert first.fingerprint() == second.fingerprint()
    assert report_fingerprint(json.loads(second.to_json())) == \
        first.fingerprint()


def test_crash_states_timings_do_not_change_the_fingerprint():
    kwargs = dict(budget=6, fases_per_thread=4, crash_states=True,
                  image_budget=8)
    first = run_campaign(["array_swaps"], ["DPO"], **kwargs)
    second = run_campaign(["array_swaps"], ["DPO"], **kwargs)
    assert "timings" in first.crash_states["cells"][0]
    assert report_fingerprint(first.to_dict()) == \
        report_fingerprint(second.to_dict()) == first.fingerprint()


def test_torn_log_campaign_catches_shrinks_and_names_the_bug():
    """The acceptance fixture: a deliberately torn undo log (newest live
    entry dropped from the snapshot) must produce failing trials, a
    shrunk minimal crash cycle, and a machine-readable report naming the
    violated invariant."""
    report = run_campaign(["array_swaps"], ["PMEM-Spec"],
                          planner="stratified", fault="torn-log",
                          budget=40, shrink=True)
    assert not report.consistent
    assert "structural" in report.violation_kinds()

    (cell,) = report.cells
    assert cell["failures"]
    failure = cell["failures"][0]
    assert any("dropped undo-log entry" in note
               for note in failure["fault_notes"])

    shrunk = cell["shrink"]
    assert shrunk is not None
    assert 1 <= shrunk["minimal_cycle"] <= shrunk["original_cycle"]
    assert shrunk["minimal_violations"]
    assert shrunk["minimal_violations"][0]["kind"] == "structural"

    # The artifact is machine-readable end to end.
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == report.schema_version
    assert payload["consistent"] is False
    assert payload["violation_kinds"] == ["structural"]
    assert payload["cells"][0]["shrink"]["minimal_cycle"] == \
        shrunk["minimal_cycle"]


def test_adaptive_planner_refines_around_failures():
    """Round two of an adaptive torn-log campaign samples the failing
    neighborhoods, so it finds at least as many failures as stratified
    did with the same budget."""
    stratified = run_campaign(["array_swaps"], ["PMEM-Spec"],
                              planner="stratified", fault="torn-log",
                              budget=30, shrink=False)
    adaptive = run_campaign(["array_swaps"], ["PMEM-Spec"],
                            planner="adaptive", fault="torn-log",
                            budget=30, shrink=False)
    assert adaptive.total_failures >= stratified.total_failures
    assert adaptive.total_failures > 0


def test_report_rows_and_save(tmp_path):
    report = CampaignReport(
        params={"planner": "stratified"},
        cells=[{"workload": "queue", "design": "HOPS", "fault": "power-cut",
                "total_cycles": 100, "trials": 3, "failures": [],
                "violation_kinds": [], "shrink": None}])
    (row,) = report.rows()
    assert row["violation_kinds"] == "-"
    assert row["minimal_cycle"] is None
    path = report.save(str(tmp_path / "report.json"))
    assert json.loads(open(path).read())["total_trials"] == 3


def test_program_cache_is_bounded_and_changes_no_report():
    """Campaigns over seeds 1-6 in one process keep at most
    ``_RESIDENT_CELL_CAP`` built programs, and every report equals the
    same campaign run on an empty program cache."""
    from repro.validation.campaign import _PROGRAM_CACHE, _RESIDENT_CELL_CAP
    params = dict(workloads=["queue"], designs=["IntelX86"], budget=3,
                  fases_per_thread=6, shrink=False)
    _PROGRAM_CACHE.clear()
    warm = {}
    for seed in range(1, 7):
        warm[seed] = run_campaign(seed=seed, **params).fingerprint()
        assert len(_PROGRAM_CACHE) <= _RESIDENT_CELL_CAP
    assert _RESIDENT_CELL_CAP == 4
    assert [key[-1] for key in _PROGRAM_CACHE] == [3, 4, 5, 6]
    for seed in range(1, 7):
        _PROGRAM_CACHE.clear()
        assert run_campaign(seed=seed, **params).fingerprint() == warm[seed]


class TestReportFingerprint:
    BASE = {"schema_version": 1, "elapsed_s": 1.5,
            "obsv": {"events": 10},
            "params": {"budget": 4, "snapshot_dir": "/tmp/a"},
            "cells": [{"passes": 3}]}

    def test_ignores_wall_clock_and_location(self):
        other = {"schema_version": 1, "elapsed_s": 99.0,
                 "obsv": {"events": 123},
                 "params": {"budget": 4, "snapshot_dir": "/tmp/b"},
                 "cells": [{"passes": 3}]}
        assert (report_fingerprint(self.BASE)
                == report_fingerprint(other))

    def test_tracks_outcomes(self):
        other = {**self.BASE, "cells": [{"passes": 2}]}
        assert (report_fingerprint(self.BASE)
                != report_fingerprint(other))
