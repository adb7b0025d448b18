"""Crash recovery parametrized over the logging flavor.

Undo and redo logging make opposite persist-ordering promises (§2.2),
but the recovery contract is identical: any crash recovers to a
consistent image, and a completed run recovers to the *same* final
image under either flavor.
"""

from dataclasses import replace

import pytest

from repro.runtime import build_crash_system, run_recovery
from repro.validation import TrialSpec, profile_cell, run_trial
from repro.workloads import ArraySwaps, Hashmap

LOG_MODES = ("undo", "redo")


@pytest.mark.parametrize("log_mode", LOG_MODES)
@pytest.mark.parametrize("workload_cls", (ArraySwaps, Hashmap),
                         ids=lambda cls: cls.__name__)
def test_mid_run_crash_recovers_consistently(workload_cls, log_mode):
    spec = TrialSpec(workload_cls.name, "PMEM-Spec", n_threads=2,
                     fases_per_thread=6, seed=42, log_mode=log_mode)
    total = profile_cell(spec).total_cycles
    outcome = run_trial(replace(spec, crash_cycle=total // 2))
    assert outcome["consistent"], outcome["violations"][:3]
    assert outcome["history_events"] > 0


@pytest.mark.parametrize("workload_cls", (ArraySwaps, Hashmap),
                         ids=lambda cls: cls.__name__)
def test_log_modes_converge_to_the_same_image(workload_cls):
    """A finished run leaves nothing to roll back or replay: undo and
    redo recovery must land on the identical data image."""
    images = {}
    for log_mode in LOG_MODES:
        workload, system = build_crash_system(
            workload_cls, "PMEM-Spec", 2, 6, 42, log_mode=log_mode)
        system.run()
        report = run_recovery(system.persisted_snapshot(), 2,
                              log_mode=log_mode)
        assert workload.validate_recovered(report.data_image()) == []
        assert report.rolled_back_threads == []
        images[log_mode] = report.data_image()
    assert images["undo"] == images["redo"]
