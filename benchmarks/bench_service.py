"""Journaled resume speedup + work-stealing straggler win.

Two headline numbers for the worker pool and its resume journal, the
first on the ``bench_campaign`` 160-trial grid (hashmap + queue x
PMEM-Spec + IntelX86, 40 stratified trials per cell, ~16 rungs):

``resume``
    The same campaign run twice over one outcome store
    (``ParallelExecutor(cache_dir=DIR)``, what ``validate --resume
    DIR`` runs): a cold pass that simulates and journals all
    24 tasks, then a replay that must settle every outcome from the
    journal (``tasks_executed == 0``) and produce a byte-identical
    report (:func:`report_fingerprint`).  That replay-to-cold ratio is
    what a killed-and-resumed campaign gets back for work completed
    before the kill.

``steal``
    A deliberately skewed grid (one cell-affine deque owning 8 x ~250ms
    chunks, the other 2 x ~50ms) through the same
    :class:`WorkStealingPool` twice: stock (idle worker steals from
    the straggler's tail) vs a stealing-disabled variant that models
    static cell-affine assignment.  Sleep-based tasks make the skew
    deterministic, so the win is pure scheduling.

Standalone::

    PYTHONPATH=src python benchmarks/bench_service.py

CI regression gate (compares against the committed JSON)::

    PYTHONPATH=src python benchmarks/bench_service.py --check BENCH_service.json
"""

import json
import shutil
import sys
import tempfile
import time
import traceback

from repro.harness import ParallelExecutor
from repro.harness.pool import Task, WorkStealingPool
from repro.obsv.bus import EventBus
from repro.validation import run_campaign
from repro.validation.campaign import report_fingerprint

WORKLOADS = ["hashmap", "queue"]
DESIGNS = ["PMEM-Spec", "IntelX86"]
BUDGET = 40          # per cell: 2x2 cells -> 160 stratified trials
N_THREADS = 2
FASES = 400
SEED = 42
RUNGS = 16
CHUNK = 10
JOBS = 2             # pool width; 2 keeps single-core CI honest

#: A resumed campaign must replay journaled work at least this much
#: faster than simulating it (the journal's reason to exist).
MIN_RESUME_SPEEDUP = 3.0
#: Stealing must beat static cell-affine assignment on the skewed grid.
MIN_STEAL_SPEEDUP = 1.25
#: ``--check`` floor: ratios are machine-relative, so the committed
#: resume speedup only gates at half its recorded value.
REGRESSION_TOLERANCE = 0.50

STRAGGLER_S = 0.25   # per chunk on the overloaded deque (x8)
QUICK_S = 0.05       # per chunk on the idle-prone deque (x2)


# ------------------------------------------------------------- resume


def _campaign_pass(scratch: str):
    """One pass of the fixture over the journal in ``scratch``: the
    report (None if the campaign raised), the executor's counters and
    the wall time, which includes reading the journal."""
    started = time.perf_counter()
    executor = ParallelExecutor(jobs=JOBS, cache_dir=f"{scratch}/journal")
    try:
        report = run_campaign(
            WORKLOADS, DESIGNS, budget=BUDGET, seed=SEED,
            n_threads=N_THREADS, fases_per_thread=FASES, shrink=False,
            executor=executor, snapshot_dir=f"{scratch}/snapshots",
            snapshot_rungs=RUNGS, batch=CHUNK)
    except Exception:                           # reported, not raised
        traceback.print_exc()
        report = None
    return report, executor.stats, time.perf_counter() - started


def run_resume_bench(scratch: str) -> dict:
    cold, cold_stats, cold_s = _campaign_pass(scratch)
    warm, warm_stats, warm_s = _campaign_pass(scratch)
    reported = cold is not None and warm is not None
    return {
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 1),
        "tasks_total": sum(cold_stats.values()),
        "cold_tasks_executed": cold_stats["tasks_executed"],
        "warm_tasks_executed": warm_stats["tasks_executed"],
        "warm_tasks_from_journal": warm_stats["tasks_from_journal"],
        "both_reported": reported,
        "fingerprint_match": reported and (
            report_fingerprint(cold.to_dict())
            == report_fingerprint(warm.to_dict())),
    }


# -------------------------------------------------------------- steal


def _nap(arg):
    time.sleep(arg)
    return arg


class _NoStealPool(WorkStealingPool):
    """Static cell-affine assignment: the stock pool minus stealing."""

    def _pick(self, worker_id, deques):
        own = deques[worker_id]
        return (own.popleft(), None) if own else None


def _straggler_tasks() -> list:
    tasks = [Task(key=f"slow{i}", fn=_nap, arg=STRAGGLER_S,
                  affinity="congested") for i in range(8)]
    tasks += [Task(key=f"fast{i}", fn=_nap, arg=QUICK_S,
                   affinity="quiet") for i in range(2)]
    return tasks


def run_steal_bench() -> dict:
    bus = EventBus()
    steals = []
    bus.subscribe(lambda event: steals.append(event)
                  if event["kind"] == "steal" else None)

    started = time.perf_counter()
    static = _NoStealPool(workers=2).run(_straggler_tasks())
    no_steal_s = time.perf_counter() - started

    started = time.perf_counter()
    stolen = WorkStealingPool(workers=2, bus=bus).run(
        _straggler_tasks())
    steal_s = time.perf_counter() - started

    return {
        "grid": {"straggler_chunks": 8, "straggler_s": STRAGGLER_S,
                 "quick_chunks": 2, "quick_s": QUICK_S, "workers": 2},
        "no_steal_s": round(no_steal_s, 3),
        "steal_s": round(steal_s, 3),
        "speedup": round(no_steal_s / steal_s, 2),
        "steals": len(steals),
        "stolen_tasks": sum(1 for o in stolen if o.stolen),
        "all_ok": all(o.ok for o in static) and all(o.ok for o in stolen),
    }


# ------------------------------------------------------------ harness


def run_service_bench(scratch: str) -> dict:
    resume = run_resume_bench(scratch)
    steal = run_steal_bench()
    return {
        "bench": "service_resume_and_steal",
        "params": {"workloads": WORKLOADS, "designs": DESIGNS,
                   "budget_per_cell": BUDGET, "n_threads": N_THREADS,
                   "fases_per_thread": FASES, "seed": SEED,
                   "rungs_per_cell": RUNGS, "batch_chunk": CHUNK,
                   "workers": JOBS},
        "resume": resume,
        "steal": steal,
    }


def main(argv) -> int:
    scratch = tempfile.mkdtemp(prefix="repro-service-bench-")
    try:
        payload = run_service_bench(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    resume, steal = payload["resume"], payload["steal"]
    failures = []
    if not resume["both_reported"]:
        failures.append("a campaign pass returned no report")
    if not resume["fingerprint_match"]:
        failures.append("resumed report is not byte-identical")
    if resume["warm_tasks_executed"] != 0:
        failures.append(
            f"warm re-run simulated {resume['warm_tasks_executed']} "
            f"task(s) instead of replaying the journal")
    if resume["speedup"] < MIN_RESUME_SPEEDUP:
        failures.append(f"resume speedup {resume['speedup']}x < "
                        f"{MIN_RESUME_SPEEDUP}x bar")
    if not steal["all_ok"] or steal["steals"] == 0:
        failures.append("stealing pass never stole")
    if steal["speedup"] < MIN_STEAL_SPEEDUP:
        failures.append(f"steal speedup {steal['speedup']}x < "
                        f"{MIN_STEAL_SPEEDUP}x bar")
    if "--check" in argv:
        committed_path = argv[argv.index("--check") + 1]
        with open(committed_path) as handle:
            committed = json.load(handle)["resume"]["speedup"]
        floor = committed * (1.0 - REGRESSION_TOLERANCE)
        payload["regression_check"] = {
            "committed_resume_speedup": committed,
            "floor": round(floor, 1),
            "ok": resume["speedup"] >= floor,
        }
        if resume["speedup"] < floor:
            failures.append(
                f"resume speedup {resume['speedup']}x below "
                f"{floor:.1f}x (committed {committed}x - "
                f"{REGRESSION_TOLERANCE:.0%})")
    else:
        with open("BENCH_service.json", "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    status = "ok" if not failures else "; ".join(failures)
    print(f"service bench: cold {resume['cold_s']}s -> warm resume "  # noqa: T201
          f"{resume['warm_s']}s ({resume['speedup']}x); straggler grid "
          f"{steal['no_steal_s']}s -> {steal['steal_s']}s with stealing "
          f"({steal['speedup']}x, {steal['steals']} steals) [{status}]")
    return 0 if not failures else 1


def test_service_resume_and_steal(benchmark, run_once, tmp_path):
    payload = run_once(benchmark,
                       lambda: run_service_bench(str(tmp_path)))
    print("\n" + json.dumps(payload, indent=2))  # noqa: T201
    resume, steal = payload["resume"], payload["steal"]
    assert resume["both_reported"]
    assert resume["fingerprint_match"], \
        "the replay changed the campaign report"
    assert resume["warm_tasks_executed"] == 0
    assert resume["speedup"] >= MIN_RESUME_SPEEDUP
    assert steal["steals"] > 0 and steal["stolen_tasks"] > 0
    assert steal["speedup"] >= MIN_STEAL_SPEEDUP


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
