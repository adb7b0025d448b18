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
        "8c6ee6dab651200895c5f78063ca6a21cff4a106a60dcc33e0b6cae3190c15f1",
        0, 0),
    "torn-log": (
        "521ea882ebe2c95d02e97dc46971d955cd4628ae08ce7cdc043c90e90fb20c2d",
        119, 11),
}


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
