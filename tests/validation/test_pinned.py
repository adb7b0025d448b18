"""Pinned campaign answers.

A change to the snapshot store, the resident cells, the judge or
shrinking must not move a single trial outcome.  These campaigns pin
the full ``report_fingerprint`` under a fault that passes and one that
fails and shrinks, run serially and over a two-worker pool:

* a laddered, batched campaign: trials read their rungs from the
  store, serially and in pool workers alike.  Shrinking goes through
  ``run_trial``, which restores from the store directly;
* the default unladdered grid (``validate --budget 25``: the four
  default workloads under the four Figure 9 designs), where every
  trial of a cell is cut from one resident live run;
* Figure 10's regime: hashmap and queue at 32 and 64 threads, where
  hashmap's speculation buffer overflows (83 and 231 times a run),
  under power-cut and under the virtual power failure of Section 4.4,
  whose abort and re-execution then meet the global pause of Section
  5.3; and hashmap laddered at 32 threads.

A report never names the rung a trial started from, so these values do
not depend on what the store held; where trials started is pinned on
their ``snapshot_restore`` events instead.  Any change to one of these
values must be justified in CHANGES.md: say what answer moved and why
the new one is right.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.harness import DESIGNS, ParallelExecutor
from repro.obsv.bus import EventBus, bus_scope
from repro.validation.campaign import (TrialSpec, _build, profile_cell,
                                       run_campaign, run_trial)

#: fault -> (report fingerprint, failing trials, shrunk cells).
PINNED = {
    "power-cut": (
        "0159a673e6bb2a104c364217d6cf2d289af4844776666cbac5d01444f48bc14b",
        0, 0),
    "torn-log": (
        "cdc3f3cc2c727973e1e8d57ca072aac469c049ba99da95d4b02061237b416373",
        9, 3),
}

#: The same for the default grid at seed 42.
PINNED_DEFAULT = {
    "power-cut": (
        "0cfd2ddeda9d090f1de3354f07394565e2bf5b61b8bdec787a0cb7c7ac3cb381",
        0, 0),
    "torn-log": (
        "d1e0969247b68aef908f067ac948e0ab300d1c831916f6ee41a80e156a2f5758",
        55, 15),
}

#: ``validate``'s default workloads.
DEFAULT_WORKLOADS = ["array_swaps", "queue", "hashmap", "rbtree"]

#: Figure 10's core counts: threads -> report fingerprint of hashmap and
#: queue under PMEM-Spec and IntelX86 at seed 42 (power-cut, budget 25
#: per cell).  Hashmap's speculation buffer overflows at these counts,
#: so its PMEM-Spec trials are judged on runs that took the global
#: pause of Section 5.3.
PINNED_THREADS = {
    32: "640f0384f2f627411672b396490afec27bd70cbbaa6b7eff94ecfde0541e7253",
    64: "9d7a3db86a1014fc67c91c40ecda8ea64fab6193cbeb17848f1c7f3ca7433f0c",
}

#: The same core counts under ``virtual-misspec``: threads -> report
#: fingerprint of hashmap and queue under PMEM-Spec at seed 42 (budget 8
#: per cell).  Every trial raises a misspeculation interrupt, so its
#: threads abort and re-execute, in hashmap's case while the buffer
#: overflows.
PINNED_VIRTUAL_MISSPEC = {
    32: "a6eba7bb0a495295c91b749d1f948a828bcde55392b085bb21e2ee43296daa01",
    64: "229bfd549733ec5c44ee483cc9cb1bf573b8f7eddeccfa02a961368eb69cf44b",
}

#: The same regime laddered: hashmap under PMEM-Spec and IntelX86 at 32
#: threads, ~16 rungs per cell.  Its PMEM-Spec ladder overflows the
#: buffer, and its trials restart from stored rungs, so the resident
#: cell's rung path runs under the pause.
PINNED_LADDERED_32 = \
    "67bc18648bd7a0f27d431d0cf1423162e749507cc07105c21c6888085327a9b7"


def campaign_with_starts(*args, **kwargs):
    """The campaign's report and the ``snapshot_restore`` source of each
    of its trials.  Trials are narrated before the first
    ``trial_finish``; shrinking's trials come after."""
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    with bus_scope(bus):
        report = run_campaign(*args, **kwargs)
    first = next(index for index, event in enumerate(seen)
                 if event["kind"] == "trial_finish")
    return report, [event["source"] for event in seen[:first]
                    if event["kind"] == "snapshot_restore"]


def assert_starts(sources, jobs, serial):
    """One start per trial.  Served serially, the starts are pinned
    (``serial``); in a pool they depend on which worker serves which
    chunk, but chunks still restart from stored rungs."""
    assert len(sources) == sum(serial.values())
    if jobs:
        assert "store" in sources
    else:
        assert Counter(sources) == serial


@pytest.mark.parametrize("jobs", (None, 2), ids=("serial", "pool"))
@pytest.mark.parametrize("fault", sorted(PINNED))
def test_laddered_campaign_report_fingerprint_pinned(fault, jobs,
                                                     tmp_path):
    fingerprint, failures, shrunk = PINNED[fault]
    report, sources = campaign_with_starts(
        ["hashmap", "queue"], ["PMEM-Spec", "IntelX86"], fault=fault,
        budget=8, fases_per_thread=30, seed=42,
        snapshot_dir=str(tmp_path), snapshot_rungs=8, batch=4,
        executor=ParallelExecutor(jobs=jobs) if jobs else None)
    assert report.total_trials == 32
    assert_starts(sources, jobs, {"store": 16, "forward": 15, "cold": 1})
    assert report.total_failures == failures
    assert sum(1 for cell in report.cells if cell["shrink"]) == shrunk
    assert report.fingerprint() == fingerprint


@pytest.mark.parametrize("jobs", (None, 2), ids=("serial", "pool"))
@pytest.mark.parametrize("fault", sorted(PINNED_DEFAULT))
def test_default_campaign_report_fingerprint_pinned(fault, jobs):
    fingerprint, failures, shrunk = PINNED_DEFAULT[fault]
    report = run_campaign(
        DEFAULT_WORKLOADS, list(DESIGNS), fault=fault, budget=25, seed=42,
        executor=ParallelExecutor(jobs=jobs) if jobs else None)
    assert report.total_trials == 400
    assert report.total_failures == failures
    assert sum(1 for cell in report.cells if cell["shrink"]) == shrunk
    assert report.fingerprint() == fingerprint


@pytest.mark.parametrize("threads", sorted(PINNED_THREADS))
def test_many_thread_campaign_report_fingerprint_pinned(threads):
    report = run_campaign(
        ["hashmap", "queue"], ["PMEM-Spec", "IntelX86"], budget=25,
        seed=42, n_threads=threads)
    assert report.total_trials == 100
    assert report.consistent
    assert report.fingerprint() == PINNED_THREADS[threads]


@pytest.mark.parametrize("threads", sorted(PINNED_VIRTUAL_MISSPEC))
def test_many_thread_virtual_misspec_report_fingerprint_pinned(threads):
    report = run_campaign(
        ["hashmap", "queue"], ["PMEM-Spec"], fault="virtual-misspec",
        budget=8, seed=42, n_threads=threads)
    assert report.total_trials == 16
    assert report.consistent
    assert report.fingerprint() == PINNED_VIRTUAL_MISSPEC[threads]


def test_virtual_misspec_re_executes_under_the_overflow_pause():
    # A 32-thread hashmap trial cut mid-run: the interrupt aborts every
    # thread in a FASE, each re-executes, and the buffer keeps
    # overflowing after the cut, so re-execution runs under the pause.
    spec = TrialSpec(workload="hashmap", design="PMEM-Spec",
                     fault="virtual-misspec", n_threads=32, seed=42)
    spec = replace(spec, crash_cycle=profile_cell(spec).total_cycles // 2)
    _workload, system, fault, _recorder, _ladder = _build(spec)

    def overflows():
        return sum(buffer.stats["overflows"]
                   for buffer in system.spec_buffers)

    launch = system.launch()
    system.advance(until=spec.crash_cycle, stop_event=launch)
    at_cut = overflows()
    fault.at_crash(system, spec.crash_cycle)
    system.advance(stop_event=launch)
    system.advance()
    aborts = sum(core.stats["lazy_aborts"] for core in system.cores)
    assert aborts >= 1
    assert sum(core.stats["fase_retries"] for core in system.cores) \
        == aborts
    assert at_cut > 0 and overflows() > at_cut
    assert run_trial(spec)["consistent"]


@pytest.mark.parametrize("jobs", (None, 2), ids=("serial", "pool"))
def test_laddered_32_thread_campaign_report_fingerprint_pinned(jobs,
                                                               tmp_path):
    report, sources = campaign_with_starts(
        ["hashmap"], ["PMEM-Spec", "IntelX86"], budget=25, seed=42,
        n_threads=32, snapshot_dir=str(tmp_path), snapshot_rungs=16,
        executor=ParallelExecutor(jobs=jobs) if jobs else None)
    assert report.total_trials == 50
    assert_starts(sources, jobs, {"store": 18, "forward": 30, "cold": 2})
    assert report.consistent
    assert report.fingerprint() == PINNED_LADDERED_32
