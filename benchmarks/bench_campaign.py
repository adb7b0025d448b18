"""Campaign throughput: cold vs warm vs cell-affine batched execution.

Runs the PR 4 stratified crash campaign (hashmap + queue x PMEM-Spec +
IntelX86, 40 trials per cell = 160 trials, ~16 rungs per cell) four
ways over identical work.  Every pass serves each cell's trials from
one resident live run, in ascending crash-cycle order (see
``docs/VALIDATION.md``, "Campaign execution"); the passes differ in
what a trial can start from besides that run, and where chunks run:

========== ===========================================================
pass        how a cell's trials are served
========== ===========================================================
``cold``    no ladder store: the live run only, one simulation from
            cycle 0 per cell, cut at each crash cycle in turn.
``warm``    serial, with the on-disk rung store: a trial whose rung
            lies ahead of the live run restores it.  The frozen warm
            baseline below was measured when this pass still restored
            and simulated per trial.
``pooled``  one chunk per cell over :meth:`ParallelExecutor.map_batched`
            (no ``batch`` cap): cells spread over the workers.
``batched`` chunks of ``CHUNK`` trials per cell over the same pool, so
            one cell spreads over several workers; each worker keeps a
            resident run per cell across its chunks.
========== ===========================================================

Methodology follows ``bench_snapshot.py``: ladder spacing is sized per
cell (~RUNGS rungs) from *untimed* probe runs before any measured pass
-- interval choice is campaign configuration, not part of the work
being compared -- and every pass, including cold, runs with the same
per-cell ``snapshot_every`` so all four share one laddered timing
universe.  No process keeps rung bytes between trials: each campaign's
profiling run writes its rungs to the pass's store, and every trial,
in-process or in a pool worker, reads and hash-checks its nearest rung
from there.  Correctness is asserted, not assumed: every pass must
produce the same stripped per-cell outcomes (trials, cycles,
violations, failures), so the speedup is pure mechanics.  The batched
pass runs under an event bus, and the JSON records where its trials
started (``forward`` / ``store`` / ``cold``) plus batch counts,
tallied from the bus's events.

Standalone::

    PYTHONPATH=src python benchmarks/bench_campaign.py

CI regression gate (compares against the committed JSON, fails the
process if batched trials/sec drop >20%)::

    PYTHONPATH=src python benchmarks/bench_campaign.py --check BENCH_campaign.json
"""

import gc
import json
import os
import shutil
import sys
import tempfile
import time

from repro.harness import ParallelExecutor
from repro.obsv.bus import EventBus, bus_scope
from repro.validation.campaign import (_RESIDENT_CELLS, TrialSpec,
                                       profile_cell, run_campaign)

WORKLOADS = ["hashmap", "queue"]
DESIGNS = ["PMEM-Spec", "IntelX86"]
CELLS = [(w, d) for w in WORKLOADS for d in DESIGNS]
BUDGET = 40          # per cell: 2x2 cells -> 160 stratified trials
N_THREADS = 2
FASES = 400
SEED = 42
RUNGS = 16
#: Pool width for the pooled/batched passes.  Resident-cell batching is
#: a per-worker mechanism, so it pays off at any width; capping at the
#: core count keeps single-core boxes honest (``jobs=1`` runs the
#: batched path in-process instead of taxing one core with a pool).
JOBS = min(4, os.cpu_count() or 1)
CHUNK = 10           # trials per (cell, chunk) task: 4 batches/cell
MIN_SPEEDUP = 2.5    # batched vs the committed PR 4 warm number
REGRESSION_TOLERANCE = 0.20

#: The PR 4 snapshot-ladder bench measured the warm serial campaign at
#: 8.4s on this exact grid (see BENCH_snapshot.json).  Frozen so the
#: batched path's headline is measured against the design it replaces.
PR4_WARM_BASELINE_S = 8.4


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


def _campaign(intervals, snapshot_dir, executor=None, batch=0):
    """One grid traversal (per-cell campaigns); returns (reports, wall)."""
    # Start from a settled process: no resident systems, and no
    # garbage from the previous pass inflating this one.
    _RESIDENT_CELLS.clear()
    gc.collect()
    started = time.perf_counter()
    reports = [
        run_campaign(
            [workload], [design], planner="stratified", budget=BUDGET,
            seed=SEED, n_threads=N_THREADS, fases_per_thread=FASES,
            shrink=False, snapshot_every=intervals[(workload, design)],
            snapshot_dir=snapshot_dir, executor=executor, batch=batch)
        for workload, design in CELLS]
    return reports, time.perf_counter() - started


def _strip(reports) -> list:
    """Cell outcomes without timing/provenance fields."""
    cells = []
    for report in reports:
        for cell in report.cells:
            cells.append({
                "workload": cell["workload"], "design": cell["design"],
                "trials": cell["trials"],
                "total_cycles": cell["total_cycles"],
                "violation_kinds": cell["violation_kinds"],
                "failures": [
                    {key: value for key, value in failure.items()
                     if key not in ("restored_from_cycle", "spec")}
                    for failure in cell["failures"]],
            })
    return cells


def _restore_sources(events) -> dict:
    """Trial-start counts by ``snapshot_restore`` source, plus cold
    fallbacks and ``batch_finish`` chunks.  A restore without a source
    read a rung from the store; a cold fallback counts only as one."""
    sources = {"forward": 0, "store": 0, "cold": 0,
               "cold_fallbacks": 0, "batches": 0}
    for event in events:
        if event["kind"] == "batch_finish":
            sources["batches"] += 1
        elif event["kind"] == "snapshot_restore":
            source = event.get("source", "store")
            if event.get("outcome") == "cold_fallback":
                sources["cold_fallbacks"] += 1
            elif source in sources:
                sources[source] += 1
    return sources


def run_campaign_bench(scratch: str) -> dict:
    intervals = pick_intervals()
    passes = {}
    reports = {}

    reports["cold"], passes["cold"] = _campaign(intervals, None)
    reports["warm"], passes["warm"] = _campaign(
        intervals, f"{scratch}/warm")
    reports["pooled"], passes["pooled"] = _campaign(
        intervals, f"{scratch}/pooled",
        executor=ParallelExecutor(jobs=JOBS))

    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    with bus_scope(bus):
        reports["batched"], passes["batched"] = _campaign(
            intervals, f"{scratch}/batched",
            executor=ParallelExecutor(jobs=JOBS, bus=bus), batch=CHUNK)

    reference = _strip(reports["cold"])
    outcomes_match = all(_strip(report) == reference
                         for report in reports.values())
    total_trials = sum(report.total_trials for report in reports["cold"])

    return {
        "bench": "campaign_batched_throughput",
        "params": {"workloads": WORKLOADS, "designs": DESIGNS,
                   "budget_per_cell": BUDGET, "n_threads": N_THREADS,
                   "fases_per_thread": FASES, "seed": SEED,
                   "rungs_per_cell": RUNGS, "jobs": JOBS,
                   "batch_chunk": CHUNK,
                   "cell_snapshot_every": {
                       f"{w}/{d}": every
                       for (w, d), every in sorted(intervals.items())}},
        "total_trials": total_trials,
        "passes": {name: round(wall, 3) for name, wall in passes.items()},
        "trials_per_sec": {name: round(total_trials / wall, 1)
                           for name, wall in passes.items()},
        "batched_trials_per_sec": round(
            total_trials / passes["batched"], 1),
        "pr4_warm_baseline_s": PR4_WARM_BASELINE_S,
        "speedup_vs_pr4_warm": round(
            PR4_WARM_BASELINE_S / passes["batched"], 2),
        "speedup_vs_warm": round(passes["warm"] / passes["batched"], 2),
        "speedup_vs_cold": round(passes["cold"] / passes["batched"], 2),
        "batched_restore_sources": _restore_sources(events),
        "outcomes_match": outcomes_match,
    }


def main(argv) -> int:
    scratch = tempfile.mkdtemp(prefix="repro-campaign-bench-")
    try:
        payload = run_campaign_bench(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = []
    if not payload["outcomes_match"]:
        failures.append("pass outcomes diverged")
    if payload["speedup_vs_pr4_warm"] < MIN_SPEEDUP:
        failures.append(
            f"batched speedup {payload['speedup_vs_pr4_warm']}x < "
            f"{MIN_SPEEDUP}x bar vs the PR 4 warm baseline")
    if payload["batched_restore_sources"]["store"] == 0:
        failures.append("no trial was ever served from a stored rung")
    if "--check" in argv:
        committed_path = argv[argv.index("--check") + 1]
        with open(committed_path) as handle:
            committed = json.load(handle)["batched_trials_per_sec"]
        floor = committed * (1.0 - REGRESSION_TOLERANCE)
        payload["regression_check"] = {
            "committed_batched_trials_per_sec": committed,
            "floor": round(floor, 1),
            "ok": payload["batched_trials_per_sec"] >= floor,
        }
        if payload["batched_trials_per_sec"] < floor:
            failures.append(
                f"batched {payload['batched_trials_per_sec']} trials/s "
                f"below {floor:.1f} (committed {committed} - "
                f"{REGRESSION_TOLERANCE:.0%})")
    else:
        with open("BENCH_campaign.json", "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    status = "ok" if not failures else "; ".join(failures)
    print(f"campaign bench: {payload['total_trials']} trials, "  # noqa: T201
          f"cold {payload['passes']['cold']}s / warm "
          f"{payload['passes']['warm']}s / batched "
          f"{payload['passes']['batched']}s "
          f"({payload['speedup_vs_pr4_warm']}x vs PR 4 warm) [{status}]")
    return 0 if not failures else 1


def test_campaign_batched_speedup(benchmark, run_once, tmp_path):
    payload = run_once(benchmark,
                       lambda: run_campaign_bench(str(tmp_path)))
    print("\n" + json.dumps(payload, indent=2))  # noqa: T201
    assert payload["outcomes_match"], \
        "batched campaign changed trial outcomes"
    assert payload["batched_restore_sources"]["store"] > 0
    assert payload["speedup_vs_warm"] >= 1.5, \
        f"batched only {payload['speedup_vs_warm']}x vs in-run warm"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
