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
* Figure 10's regime, under power-cut only: hashmap and queue at 32
  and 64 threads, where hashmap's speculation buffer overflows (83 and
  231 times a run), and hashmap laddered at 32 threads.

Any change to one of these values must be justified in CHANGES.md: say
what answer moved and why the new one is right.
"""

import pytest

from repro.harness import DESIGNS, ParallelExecutor
from repro.validation.campaign import run_campaign

#: fault -> (report fingerprint, failing trials, shrunk cells).
PINNED = {
    "power-cut": (
        "6c0d659f7d47ec992957a1bb9bc66d491fbee190419406f98e7004a0f1b0072d",
        0, 0),
    "torn-log": (
        "e5f04d19f8de7702734a04f3535d6bf57f08930a5355754a9171b1c3fc49938f",
        9, 3),
}

#: The same for the default grid at seed 42.
PINNED_DEFAULT = {
    "power-cut": (
        "f60ac32e139ca2a486a37eb1be4dfb9625cebe3089f75eee37653ee4215907aa",
        0, 0),
    "torn-log": (
        "67792ed05902bf251a98909fb5c430b855894319063af40412b6052252ef1769",
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
    32: "1e6e2af05be456bad4b05b05f6969ffcdec95fd2e7538d6192044559d8f3f0e2",
    64: "7fa38bc64bd3c07240277e81ab68f507f24576fc5849f58fe362c69b975126ef",
}

#: The same regime laddered: hashmap under PMEM-Spec and IntelX86 at 32
#: threads, ~16 rungs per cell.  Its PMEM-Spec ladder overflows the
#: buffer, and its trials restart from stored rungs, so the resident
#: cell's rung path runs under the pause.
PINNED_LADDERED_32 = \
    "fe0d9ae4a730e06ddac76b011e31125134f65e997762d7e4333b1d7f74c30306"


@pytest.mark.parametrize("jobs", (None, 2), ids=("serial", "pool"))
@pytest.mark.parametrize("fault", sorted(PINNED))
def test_laddered_campaign_report_fingerprint_pinned(fault, jobs,
                                                     tmp_path):
    fingerprint, failures, shrunk = PINNED[fault]
    report = run_campaign(
        ["hashmap", "queue"], ["PMEM-Spec", "IntelX86"], fault=fault,
        budget=8, fases_per_thread=30, seed=42,
        snapshot_dir=str(tmp_path), snapshot_rungs=8, batch=4,
        executor=ParallelExecutor(jobs=jobs) if jobs else None)
    assert report.total_trials == 32
    assert sum(cell["restored_trials"] for cell in report.cells) == 31
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


@pytest.mark.parametrize("jobs", (None, 2), ids=("serial", "pool"))
def test_laddered_32_thread_campaign_report_fingerprint_pinned(jobs,
                                                               tmp_path):
    report = run_campaign(
        ["hashmap"], ["PMEM-Spec", "IntelX86"], budget=25, seed=42,
        n_threads=32, snapshot_dir=str(tmp_path), snapshot_rungs=16,
        executor=ParallelExecutor(jobs=jobs) if jobs else None)
    assert report.total_trials == 50
    assert sum(cell["restored_trials"] for cell in report.cells) == 47
    assert report.consistent
    assert report.fingerprint() == PINNED_LADDERED_32
