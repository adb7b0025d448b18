"""Durable-state checking rides the snapshot ladder, not cold boots.

Runs the same ``check_cell`` twice over identical crash cycles in the
*same* laddered timing universe (``snapshot_every`` sized to ~RUNGS
in-memory rungs) -- warm restores the nearest rung and replays only the
tail, cold (``restore=False``) re-simulates every cycle from cycle 0 --
and gates on the acquire-phase speedup.  Enumeration and image judging are
identical either way, so only ``acquire_s`` is compared; the enumerated
image sets and verdicts must match byte for byte, which is also the
bench's correctness check.  Records the result to
``BENCH_crashstates.json``.

The checker captures only the rungs its acquisitions restore, and
``restore=False`` restores none, so the cold run captures no rungs at
all.  ``cold_s`` and ``total_speedup`` therefore compare different
canonical-run costs as well as different acquires; they are recorded
for context only.  The gate reads ``acquire_s`` alone.

Standalone::

    PYTHONPATH=src python benchmarks/bench_crashstates.py

regression gate (CI)::

    PYTHONPATH=src python benchmarks/bench_crashstates.py \
        --check BENCH_crashstates.json

or through pytest-benchmark::

    python -m pytest benchmarks/bench_crashstates.py
"""

import json
import sys
import time

from repro.crashstates.checker import check_cell
from repro.obsv.bus import EventBus, bus_scope
from repro.validation.campaign import (TrialSpec, profile_cell,
                                       report_fingerprint)

WORKLOAD = "hashmap"
DESIGN = "PMEM-Spec"
N_THREADS = 2
FASES = 400          # long run: cold acquires pay O(crash_cycle) each
SEED = 42
RUNGS = 16
N_CYCLES = 10        # crash cycles, late-biased (where cold is slow)
IMAGE_BUDGET = 12

MIN_ACQUIRE_SPEEDUP = 5.0
#: ``--check`` floor: wall-clock ratios are machine-relative, so the
#: committed speedup only gates against collapse, not jitter.
REGRESSION_TOLERANCE = 0.50


def pick_cycles(persist_cycles) -> list:
    """Evenly spaced persist cycles over the back half of the run --
    the region where a cold acquire replays the most history."""
    half = persist_cycles[len(persist_cycles) // 2:]
    step = max(1, len(half) // N_CYCLES)
    return sorted(set(half[::step]))[:N_CYCLES]


def run_crashstates_bench() -> dict:
    base = TrialSpec(workload=WORKLOAD, design=DESIGN,
                     n_threads=N_THREADS, fases_per_thread=FASES,
                     seed=SEED)
    persist_cycles = profile_cell(base).persist_cycles
    cycles = pick_cycles(persist_cycles)
    every = max(1, len(persist_cycles) // RUNGS)

    def run(restore):
        """The payload, the wall time and the acquisitions that restored
        a rung (their ``snapshot_restore`` events say so)."""
        spec = TrialSpec(workload=WORKLOAD, design=DESIGN,
                         n_threads=N_THREADS, fases_per_thread=FASES,
                         seed=SEED, snapshot_every=every)
        events = []
        bus = EventBus()
        bus.subscribe(events.append)
        started = time.perf_counter()
        with bus_scope(bus):
            report = check_cell(spec, cycles, image_budget=IMAGE_BUDGET,
                                shrink=False, restore=restore)
        restored = sum(1 for event in events
                       if event["kind"] == "snapshot_restore"
                       and event["source"] == "resident")
        return report, time.perf_counter() - started, restored

    cold_report, cold_s, _ = run(False)
    warm_report, warm_s, warm_restored = run(True)

    cold_acquire = cold_report["timings"]["acquire_s"]
    warm_acquire = warm_report["timings"]["acquire_s"]
    return {
        "bench": "crashstates_rung_restore",
        "params": {"workload": WORKLOAD, "design": DESIGN,
                   "n_threads": N_THREADS, "fases_per_thread": FASES,
                   "seed": SEED, "rungs": RUNGS,
                   "snapshot_every": every,
                   "image_budget": IMAGE_BUDGET,
                   "crash_cycles": cycles},
        "images_enumerated": warm_report["images_enumerated"],
        "images_failed": warm_report["images_failed"],
        "consistent": warm_report["consistent"],
        "cold_acquire_s": round(cold_acquire, 3),
        "warm_acquire_s": round(warm_acquire, 3),
        "acquire_speedup": round(cold_acquire / warm_acquire, 2),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "total_speedup": round(cold_s / warm_s, 2),
        "warm_cycles_restored": warm_restored,
        # Whole payloads, timings aside.
        "outcomes_match": (report_fingerprint(cold_report)
                           == report_fingerprint(warm_report)),
    }


def main(argv) -> int:
    payload = run_crashstates_bench()
    failures = []
    if not payload["outcomes_match"]:
        failures.append("warm run changed enumerated images or verdicts")
    if not payload["consistent"]:
        failures.append("cell inconsistent: some image failed recovery")
    if payload["warm_cycles_restored"] == 0:
        failures.append("warm run never restored a rung")
    if payload["acquire_speedup"] < MIN_ACQUIRE_SPEEDUP:
        failures.append(f"acquire speedup {payload['acquire_speedup']}x "
                        f"< {MIN_ACQUIRE_SPEEDUP}x bar")
    if "--check" in argv:
        committed_path = argv[argv.index("--check") + 1]
        with open(committed_path) as handle:
            committed = json.load(handle)["acquire_speedup"]
        floor = committed * (1.0 - REGRESSION_TOLERANCE)
        payload["regression_check"] = {
            "committed_acquire_speedup": committed,
            "floor": round(floor, 1),
            "ok": payload["acquire_speedup"] >= floor,
        }
        if payload["acquire_speedup"] < floor:
            failures.append(
                f"acquire speedup {payload['acquire_speedup']}x below "
                f"{floor:.1f}x (committed {committed}x - "
                f"{REGRESSION_TOLERANCE:.0%})")
    else:
        with open("BENCH_crashstates.json", "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    status = "ok" if not failures else "; ".join(failures)
    print(f"crashstates bench: {payload['images_enumerated']} images "  # noqa: T201
          f"over {len(payload['params']['crash_cycles'])} cycles, "
          f"acquire cold {payload['cold_acquire_s']}s -> warm "
          f"{payload['warm_acquire_s']}s "
          f"({payload['acquire_speedup']}x) [{status}]")
    return 0 if not failures else 1


def test_crashstates_rung_restore(benchmark, run_once):
    payload = run_once(benchmark, run_crashstates_bench)
    print("\n" + json.dumps(payload, indent=2))  # noqa: T201
    assert payload["outcomes_match"], \
        "rung restores changed enumerated images or verdicts"
    assert payload["consistent"]
    assert payload["warm_cycles_restored"] > 0
    assert payload["acquire_speedup"] >= MIN_ACQUIRE_SPEEDUP


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
