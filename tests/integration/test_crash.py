"""Crash-injection tests: power failure at arbitrary points must always
recover to a structurally consistent state (§2.1's failure atomicity),
for every design, on every workload's invariants.  Each crash is one
:func:`run_trial` with the power-cut fault, so the persist-order oracle
judges it too."""

from dataclasses import replace

import pytest

from repro.validation import TrialSpec, profile_cell, run_trial
from repro.workloads import (
    ArraySwaps,
    ConcurrentQueue,
    Hashmap,
    Memcached,
    RBTree,
    TATP,
    TPCC,
    Vacation,
)

DESIGNS = ("IntelX86", "DPO", "HOPS", "PMEM-Spec")

# Keep the matrix affordable: every workload crashes under PMEM-Spec and
# the x86 baseline; the structurally richest workloads (rbtree, tpcc)
# also crash under the buffered designs.
FAST_MATRIX = [
    (ArraySwaps, "IntelX86"), (ArraySwaps, "PMEM-Spec"),
    (ConcurrentQueue, "IntelX86"), (ConcurrentQueue, "PMEM-Spec"),
    (Hashmap, "IntelX86"), (Hashmap, "PMEM-Spec"),
    (TATP, "IntelX86"), (TATP, "PMEM-Spec"),
    (Vacation, "IntelX86"), (Vacation, "PMEM-Spec"),
    (Memcached, "PMEM-Spec"),
    (RBTree, "IntelX86"), (RBTree, "PMEM-Spec"),
    (RBTree, "HOPS"), (RBTree, "DPO"),
    (TPCC, "IntelX86"), (TPCC, "PMEM-Spec"),
    (TPCC, "HOPS"), (TPCC, "DPO"),
]


def crash_at(spec, crash_cycles):
    """One power-cut trial of ``spec``'s cell per crash cycle."""
    return [run_trial(replace(spec, crash_cycle=cycle))
            for cycle in crash_cycles]


def spread(spec, n_points):
    """``n_points`` crash cycles evenly spread across the cell's run."""
    step = max(1, profile_cell(spec).total_cycles // (n_points + 1))
    return [step * (index + 1) for index in range(n_points)]


@pytest.mark.parametrize(
    "workload_cls,design", FAST_MATRIX,
    ids=[f"{w.__name__}-{d}" for w, d in FAST_MATRIX])
def test_crash_anywhere_recovers_consistently(workload_cls, design):
    spec = TrialSpec(workload_cls.name, design, n_threads=2,
                     fases_per_thread=10, seed=17)
    for outcome in crash_at(spec, spread(spec, 5)):
        assert outcome["consistent"], (
            f"{workload_cls.__name__}/{design} @ "
            f"{outcome['crash_cycle']}: {outcome['violations'][:3]}")


def test_crash_at_cycle_one_is_initial_state():
    outcome = run_trial(TrialSpec("array_swaps", "PMEM-Spec",
                                  crash_cycle=1, n_threads=2,
                                  fases_per_thread=5, seed=17))
    assert outcome["consistent"]
    assert outcome["commits_before_crash"] == 0


def test_mid_fase_crash_rolls_back_partial_writes():
    """Find a crash point that lands mid-FASE (commits < total) and show
    recovery actually rolled a thread back at least once somewhere."""
    spec = TrialSpec("tpcc", "PMEM-Spec", n_threads=2,
                     fases_per_thread=10, seed=17)
    total = profile_cell(spec).total_cycles
    rolled_back = []
    for outcome in crash_at(spec, [int(total * fraction) for fraction
                                   in (0.1, 0.2, 0.375, 0.5, 0.675)]):
        assert outcome["consistent"]
        rolled_back += outcome["rolled_back_threads"]
    assert rolled_back, "no crash point ever landed mid-FASE"


def test_recovery_counts_match_rolled_back_threads():
    spec = TrialSpec("hashmap", "IntelX86", n_threads=2,
                     fases_per_thread=10, seed=17)
    [outcome] = crash_at(spec, [profile_cell(spec).total_cycles // 2])
    assert outcome["consistent"]
    assert set(outcome["rolled_back_threads"]) <= {0, 1}


def test_dense_crash_points_on_one_fase_window():
    """Carpet-bomb a narrow window with crash points: every single cycle
    offset must recover (the strongest atomicity check)."""
    spec = TrialSpec("array_swaps", "PMEM-Spec", n_threads=2,
                     fases_per_thread=8, seed=23)
    center = profile_cell(spec).total_cycles // 2
    outcomes = crash_at(spec, [center + delta
                               for delta in range(-400, 401, 100)])
    assert all(outcome["consistent"] for outcome in outcomes)
