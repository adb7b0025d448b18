"""Pinned crash-states answers.

A speed change to the checker, the durable-state models, acquisition or
the snapshot layer must not move a single verdict, image or witness.
These two campaigns pin the full ``report_fingerprint`` of the crash-
states pass on every design, under a fault that passes and one that
fails and shrinks.  Any change to either value must be justified in
CHANGES.md: say what answer moved and why the new one is right.
"""

import pytest

from repro.validation.campaign import run_campaign

WORKLOADS = ["hashmap", "queue", "array_swaps"]
DESIGNS = ["IntelX86", "PMEM-Spec", "DPO", "HOPS"]


#: fault -> (report fingerprint, failing images, shrunk cells).
PINNED = {
    "power-cut": (
        "0ec92c7e017d4e57c805b90578f3aee0d8a599e5cf7de898f9135a7eaaee3b2c",
        0, 0),
    "torn-log": (
        "a66290dcc8d94ae8745dc6e05c3708a4be607ad44eab38690f1a8cfdbf28d98f",
        119, 11),
}

#: One hashmap cell pair at 32 threads (power-cut, budget 8): the
#: PMEM-Spec run overflows its speculation buffer, so the durable-state
#: models judge images cut from runs under the Section 5.3 pause.
PINNED_32_THREADS = (
    "6d3fc175435497c59923208547c8404cde506fcb925200c76e1587128a1d5245", 522)


@pytest.mark.parametrize("fault", sorted(PINNED))
def test_crash_states_report_fingerprint_pinned(fault):
    fingerprint, images_failed, shrunk = PINNED[fault]
    report = run_campaign(WORKLOADS, DESIGNS, fault=fault, budget=6,
                          fases_per_thread=12, seed=42, crash_states=True,
                          image_budget=16)
    cells = report.crash_states["cells"]
    assert len(cells) == len(WORKLOADS) * len(DESIGNS)
    assert sum(cell["images_failed"] for cell in cells) == images_failed
    assert sum(1 for cell in cells if cell["shrink"]) == shrunk
    assert report.fingerprint() == fingerprint


def test_32_thread_crash_states_report_fingerprint_pinned():
    fingerprint, images = PINNED_32_THREADS
    report = run_campaign(["hashmap"], ["PMEM-Spec", "IntelX86"],
                          budget=8, seed=42, n_threads=32,
                          crash_states=True)
    cells = report.crash_states["cells"]
    assert sum(cell["images_enumerated"] for cell in cells) == images
    assert report.crash_states_ok
    assert report.fingerprint() == fingerprint
