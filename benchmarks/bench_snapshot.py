"""Snapshot-ladder acceleration: O(segment) crash trials.

Runs the same stratified crash campaign twice -- cold (no rung store:
each cell's trials cut one forward-sweeping live run) and warm (a trial
whose nearest rung lies ahead of the live run restores it) -- in the
*same* laddered timing universe, so the only difference is where each
trial starts simulating.  Since campaigns sweep forward, the warm pass
pays its rung captures without a per-trial rebuild to save
(``docs/PERF.md``, Layer 5).  Ladder spacing is sized per cell (~RUNGS
rungs each) from untimed probe runs before either measured campaign:
persist densities differ ~5x across the grid, and interval choice is
campaign configuration, not part of the work being compared.  Records wall-clock speedup plus a determinism
sample (every stored rung must replay onto the straight-line run's end
fingerprint) to ``BENCH_snapshot.json``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_snapshot.py

or through pytest-benchmark::

    python -m pytest benchmarks/bench_snapshot.py
"""

import json
import shutil
import tempfile
import time

from repro.obsv.bus import EventBus, bus_scope
from repro.validation.campaign import (TrialSpec, profile_cell,
                                       report_fingerprint, run_campaign,
                                       verify_cell)

WORKLOADS = ["hashmap", "queue"]
DESIGNS = ["PMEM-Spec", "IntelX86"]
CELLS = [(w, d) for w in WORKLOADS for d in DESIGNS]
BUDGET = 40          # per cell: 2x2 cells -> 160 stratified trials
N_THREADS = 2
FASES = 400          # long runs: many persists between trials
SEED = 42
RUNGS = 16


def pick_intervals() -> dict:
    """Per-cell ladder spacing (~RUNGS rungs) from unladdered probes."""
    intervals = {}
    for workload, design in CELLS:
        profile = profile_cell(TrialSpec(
            workload=workload, design=design, n_threads=N_THREADS,
            fases_per_thread=FASES, seed=SEED))
        intervals[(workload, design)] = max(
            1, len(profile.persist_cycles) // RUNGS)
    return intervals


def run_snapshot_bench(snapshot_dir: str) -> dict:
    intervals = pick_intervals()

    def campaign(directory):
        """The reports, the wall time and the trials that restarted
        from a stored rung (their ``snapshot_restore`` events say so)."""
        events = []
        bus = EventBus()
        bus.subscribe(events.append)
        started = time.perf_counter()
        with bus_scope(bus):
            reports = [
                run_campaign(
                    [workload], [design], planner="stratified",
                    budget=BUDGET, seed=SEED, n_threads=N_THREADS,
                    fases_per_thread=FASES, shrink=False,
                    snapshot_every=intervals[(workload, design)],
                    snapshot_dir=directory)
                for workload, design in CELLS]
        restored = sum(1 for event in events
                       if event["kind"] == "snapshot_restore"
                       and event["source"] == "store")
        return reports, time.perf_counter() - started, restored

    cold_reports, cold_s, _ = campaign(None)
    warm_reports, warm_s, restored = campaign(snapshot_dir)

    # The acceleration must be invisible in the results.
    outcomes_match = _outcomes(cold_reports) == _outcomes(warm_reports)

    total_trials = sum(report.total_trials for report in cold_reports)

    determinism = verify_cell(TrialSpec(
        workload=WORKLOADS[0], design=DESIGNS[0], n_threads=N_THREADS,
        fases_per_thread=FASES, seed=SEED,
        snapshot_every=intervals[(WORKLOADS[0], DESIGNS[0])],
        snapshot_dir=snapshot_dir))

    return {
        "bench": "snapshot_ladder_campaign",
        "params": {"workloads": WORKLOADS, "designs": DESIGNS,
                   "budget_per_cell": BUDGET, "n_threads": N_THREADS,
                   "fases_per_thread": FASES, "seed": SEED,
                   "rungs_per_cell": RUNGS,
                   "cell_snapshot_every": {
                       f"{w}/{d}": every
                       for (w, d), every in sorted(intervals.items())}},
        "total_trials": total_trials,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2),
        "warm_trials_restored": restored,
        "outcomes_match": outcomes_match,
        "determinism": {
            "rungs_verified": len(determinism["checks"]),
            "all_rungs_deterministic": determinism["ok"],
        },
    }


def _outcomes(reports) -> list:
    """Each cell whole, apart from its failures' ``spec.snapshot_dir``
    (:func:`report_fingerprint` drops store locations and timings)."""
    return [report_fingerprint(cell)
            for report in reports for cell in report.cells]


def main() -> int:
    snapshot_dir = tempfile.mkdtemp(prefix="repro-snap-bench-")
    try:
        payload = run_snapshot_bench(snapshot_dir)
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)
    with open("BENCH_snapshot.json", "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    ok = (payload["outcomes_match"]
          and payload["determinism"]["all_rungs_deterministic"])
    status = "ok" if ok else "FAILED"
    print(f"BENCH_snapshot.json written: {payload['total_trials']} "  # noqa: T201
          f"trials, cold {payload['cold_s']}s -> warm "
          f"{payload['warm_s']}s ({payload['speedup']}x) [{status}]")
    return 0 if ok else 1


def test_snapshot_campaign_speedup(benchmark, run_once, tmp_path):
    payload = run_once(benchmark,
                       lambda: run_snapshot_bench(str(tmp_path / "s")))
    print("\n" + json.dumps(payload, indent=2))  # noqa: T201
    assert payload["outcomes_match"], \
        "warm campaign changed trial outcomes"
    assert payload["determinism"]["all_rungs_deterministic"]
    assert payload["speedup"] >= 3.0, \
        f"ladder speedup {payload['speedup']}x below the 3x target"


if __name__ == "__main__":
    import sys
    sys.exit(main())
