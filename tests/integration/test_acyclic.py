"""A finished machine is freed by reference counting alone.

The ownership rule (docs/ARCHITECTURE.md): an owner keeps strong
references to what it owns; anything that points back at an owner holds
it weakly, or is handed the collaborator it needs instead.  Then a
completed ``System`` -- its components, event machinery, program and
lowered op lists -- forms no reference cycle, and dropping the last
reference frees all of it at once instead of leaving it for a full
collection of the cyclic collector.

Every case builds and runs with the collector disabled, keeps only a
``weakref.ref`` to each system built, and drops the rest: each ref must
be dead at once, and ``gc.collect()`` must then find nothing.
"""

import gc
import weakref

import pytest

from repro.config import table3_config
from repro.harness import ParallelExecutor, RunSpec, Sweep
from repro.persistency import design_by_name, design_classes
from repro.sim import MetricsCollector, TraceRecorder
from repro.snapshot import SnapshotLadder
from repro.system import System, build_system
from repro.validation.campaign import TrialSpec, profile_cell
from repro.workloads import workload_by_name

DESIGNS = sorted(design_classes())
SETUPS = ("plain", "ladder", "observed", "two-pmcs")


@pytest.fixture
def built(monkeypatch):
    """Weak refs to every System built while the test body runs, with
    the cyclic collector off."""
    refs = []
    init = System.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(System, "__init__", recording_init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def assert_freed(refs, expected):
    assert len(refs) == expected
    assert [ref() for ref in refs] == [None] * expected, \
        "a finished system outlived its last strong reference"
    assert gc.collect() == 0, "a finished run left cyclic garbage"


def run_one(design, setup):
    program = workload_by_name("hashmap", seed=3).build(
        n_threads=2, fases_per_thread=12)
    overrides = {"n_pm_controllers": 2} if setup == "two-pmcs" else {}
    observed = setup == "observed"
    system = build_system(
        program, design_by_name(design),
        table3_config(n_cores=2, **overrides),
        tracer=TraceRecorder() if observed else None,
        metrics=MetricsCollector(window_cycles=500) if observed else None)
    if setup == "ladder":
        ladder = SnapshotLadder(system, every=6).install()
    result = system.run()
    assert result.fases_committed == 24
    if setup == "ladder":
        assert ladder.rungs, "the ladder captured nothing"


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("design", DESIGNS)
def test_a_finished_system_is_freed_at_once(built, design, setup):
    run_one(design, setup)
    assert_freed(built, 1)


def test_a_serial_sweep_frees_every_system(built):
    specs = [RunSpec("queue", design, n_threads=2, fases_per_thread=8)
             for design in ("PMEM-Spec", "HOPS")]
    results = ParallelExecutor(jobs=1, cache_dir=None).run(Sweep(specs))
    assert len(results) == 2
    del results
    assert_freed(built, 2)


def test_profiling_a_laddered_cell_frees_its_system(built, tmp_path):
    spec = TrialSpec("hashmap", "PMEM-Spec", n_threads=2,
                     fases_per_thread=10, snapshot_every=5,
                     snapshot_dir=str(tmp_path))
    profile = profile_cell(spec)
    assert profile.total_cycles > 0
    assert list((tmp_path / "objects").iterdir()), "no rung was stored"
    del profile
    assert_freed(built, 1)


def test_a_resident_restart_frees_the_abandoned_launch(monkeypatch,
                                                       tmp_path):
    """A campaign cell that restores a rung into its live system, or
    rebuilds it, abandons the launch it was driving: with the collector
    off, every core generator of every abandoned launch must be gone
    once the pass ends (the campaign-ladder benchmark's inputs)."""
    from repro.validation import campaign

    latest, abandoned = {}, []
    launch, restart = System.launch, campaign._ResidentCell._restart

    def recording_launch(self):
        done = launch(self)
        latest[id(self)] = [weakref.ref(process._generator)
                            for process in done.children]
        return done

    def recording_restart(self, spec, rung):
        if self.system is not None:
            abandoned.extend(latest.pop(id(self.system), ()))
        restart(self, spec, rung)

    monkeypatch.setattr(System, "launch", recording_launch)
    monkeypatch.setattr(campaign._ResidentCell, "_restart",
                        recording_restart)
    gc.collect()
    gc.disable()
    try:
        report = campaign.run_campaign(
            workloads=["hashmap", "queue"], designs=["PMEM-Spec", "IntelX86"],
            budget=40, seed=42, fases_per_thread=120, snapshot_rungs=16,
            batch=10, snapshot_dir=str(tmp_path))
        assert abandoned, "no trial restarted a live run"
        assert [ref for ref in abandoned if ref() is not None] == []
    finally:
        gc.enable()
    assert report.fingerprint()[:16] == "a652a44d1352b9da"


def test_crash_states_frees_every_cut_run(monkeypatch):
    """The crash-state checker cuts runs three ways: it stops its
    canonical run at the last rung it needs, restores every acquisition
    into that one system, and (like a shrink probe or the cold
    fallback's ``run_trial``) leaves the last cut run behind when the
    cell is done.  Each must abandon the launch it cut: with the
    collector off, once the campaign's resident cells are closed, no
    core generator of the crash-states benchmark's inputs is alive."""
    from collections import OrderedDict

    from repro.harness import DESIGNS as FIGURE9_DESIGNS
    from repro.validation import campaign

    generators = []
    launch = System.launch

    def recording_launch(self):
        done = launch(self)
        generators.extend(weakref.ref(process._generator)
                          for process in done.children)
        return done

    monkeypatch.setattr(System, "launch", recording_launch)
    monkeypatch.setattr(campaign, "_RESIDENT_CELLS", OrderedDict())
    gc.collect()
    gc.disable()
    try:
        report = campaign.run_campaign(
            workloads=["hashmap", "queue"], designs=list(FIGURE9_DESIGNS),
            budget=8, seed=42, fases_per_thread=40, crash_states=True)
        for cell in campaign._RESIDENT_CELLS.values():
            cell.close()
        campaign._RESIDENT_CELLS.clear()
        assert generators, "no run was launched"
        assert [ref for ref in generators if ref() is not None] == []
    finally:
        gc.enable()
    assert report.fingerprint()[:16] == "1c28a5c16f6232d7"
