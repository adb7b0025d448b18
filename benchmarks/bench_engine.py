"""Engine-loop throughput on the Figure 9 sweep grid.

Times **only** ``System.run()`` (build and lowering excluded) across
the reduced fig9 matrix -- every benchmark x every design, 8 threads,
scale 0.25, seed 42.  The grid is run twice in one process: a *cold*
pass (first in-process traversal of the grid) and a *warm* pass
(second traversal: allocator, bytecode and branch caches hot), which
is what a long parameter sweep actually sees.

Correctness is asserted, not assumed: every cell's ``SimResult`` dict
and post-run ``state_fingerprint()`` must be identical across the cold
and warm passes; any divergence fails the bench.

``LEGACY_BASELINE`` pins the pre-overhaul number (single-heap
push/pop-per-Event scheduler, no fast callback path, unindexed PM
device) measured with this exact grid and methodology; the reported
``speedup_vs_legacy`` must stay >= 5x.

Standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py

CI regression gate (compares against the committed JSON, fails the
process if the cold throughput drops >20%)::

    PYTHONPATH=src python benchmarks/bench_engine.py --check BENCH_engine.json
"""

import gc
import json
import os
import sys
import time

from repro.harness.configs import BENCHMARK_ORDER, DESIGNS
from repro.harness.sweep import RunSpec, build_spec_system
from repro.workloads import BENCHMARKS

SCALE = float(os.environ.get("REPRO_BENCH_ENGINE_SCALE", "0.25"))
N_THREADS = 8
SEED = 42
MIN_SPEEDUP = 5.0          # the PR's perf bar, vs LEGACY_BASELINE
MIN_WARM_RATIO = 0.9       # warm pass must not trail cold by > 10%
REGRESSION_TOLERANCE = 0.20

#: Pre-overhaul engine on this same grid/methodology (heap scheduler,
#: Event allocated per hop, O(image) PM block scans).  Frozen so the
#: speedup is measured against the design being replaced, not against
#: whatever the previous CI run happened to score.
LEGACY_BASELINE = {
    "cycles_per_sec": 36718.8,
    "total_wall_s": 39.636,
    "engine": "heap push/pop per Event, unindexed PMDevice",
}


def _grid():
    for benchmark in BENCHMARK_ORDER:
        fases = max(5, round(BENCHMARKS[benchmark].default_fases * SCALE))
        for design in DESIGNS:
            yield RunSpec(benchmark=benchmark, design=design,
                          n_threads=N_THREADS, fases_per_thread=fases,
                          seed=SEED)


def _run_grid():
    """One traversal; returns (cycles, wall_s, per-cell outcomes)."""
    outcomes = {}
    total_cycles = 0
    total_wall = 0.0
    for spec in _grid():
        system = build_spec_system(spec)
        started = time.perf_counter()
        result = system.run()
        total_wall += time.perf_counter() - started
        total_cycles += result.cycles
        outcomes[(spec.benchmark, spec.design)] = (
            result.to_dict(), system.state_fingerprint())
    return total_cycles, total_wall, outcomes


def run_engine_bench() -> dict:
    passes = {}
    outcomes = {}
    for temperature in ("cold", "warm"):
        # Every pass starts from a settled heap: garbage left by the
        # previous pass must not tax this pass's GC (the old
        # warm-slower-than-cold inversion was exactly that, fed by a
        # lowering-cache leak that grew the heap on every pass).
        gc.collect()
        cycles, wall, outcomes[temperature] = _run_grid()
        passes[temperature] = (cycles, wall)
    cold_cycles, cold_wall = passes["cold"]
    warm_cycles, warm_wall = passes["warm"]
    cycles_per_sec = round(cold_cycles / cold_wall, 1)
    return {
        "bench": "engine_loop_throughput",
        "params": {"benchmarks": list(BENCHMARK_ORDER),
                   "designs": list(DESIGNS), "scale": SCALE,
                   "n_threads": N_THREADS, "seed": SEED,
                   "cells": len(BENCHMARK_ORDER) * len(DESIGNS),
                   "timed": "System.run() only (build excluded)"},
        "total_cycles": cold_cycles,
        "cycles_per_sec": cycles_per_sec,
        "cold_cycles_per_sec": cycles_per_sec,
        "warm_cycles_per_sec": round(warm_cycles / warm_wall, 1),
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "legacy_baseline": LEGACY_BASELINE,
        "speedup_vs_legacy": round(
            cycles_per_sec / LEGACY_BASELINE["cycles_per_sec"], 2),
        "results_identical_cold_warm": outcomes["cold"] == outcomes["warm"],
    }


def main(argv) -> int:
    payload = run_engine_bench()
    failures = []
    if not payload["results_identical_cold_warm"]:
        failures.append("cold and warm passes diverged")
    if payload["speedup_vs_legacy"] < MIN_SPEEDUP:
        failures.append(
            f"speedup {payload['speedup_vs_legacy']}x < {MIN_SPEEDUP}x bar")
    cold = payload["cold_cycles_per_sec"]
    warm = payload["warm_cycles_per_sec"]
    if warm < MIN_WARM_RATIO * cold:
        failures.append(
            f"warm {warm} < {MIN_WARM_RATIO:.0%} of cold {cold} "
            f"(state leaking across passes?)")
    if "--check" in argv:
        committed_path = argv[argv.index("--check") + 1]
        with open(committed_path) as handle:
            committed = json.load(handle)["cycles_per_sec"]
        floor = committed * (1.0 - REGRESSION_TOLERANCE)
        payload["regression_check"] = {
            "committed_cycles_per_sec": committed,
            "floor": round(floor, 1),
            "ok": payload["cycles_per_sec"] >= floor,
        }
        if payload["cycles_per_sec"] < floor:
            failures.append(
                f"throughput {payload['cycles_per_sec']} below "
                f"{floor:.0f} (committed {committed} - "
                f"{REGRESSION_TOLERANCE:.0%})")
    else:
        with open("BENCH_engine.json", "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    status = "ok" if not failures else "; ".join(failures)
    print(f"engine bench: {payload['cycles_per_sec']} cycles/sec "  # noqa: T201
          f"({payload['speedup_vs_legacy']}x vs legacy engine) [{status}]")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
