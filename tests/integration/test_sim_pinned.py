"""Pinned simulator answer over the whole Figure 9 grid.

A change to the event queue, the hot paths of the timing models or the
way a sweep builds its programs must not move a single simulated event.
This test runs the Figure 9 grid (8 benchmarks x 4 designs, 8 threads,
seed 42, scale 0.05) and pins one sha256 over three things per cell:
``SimResult.to_dict()``, the end-of-run ``state_fingerprint()`` and the
number of scheduled events (``env.capture_state()["sequence"]``).

The digest is asserted twice.  Once through ``figure9``'s serial
executor, where consecutive cells of one benchmark may share a built
program, and once with a fresh ``build_spec_system`` per cell and the
build memo emptied before every cell -- so a run that mutated a shared
program would show up as a mismatch.  Any change to the value must be
justified in CHANGES.md: say what answer moved and why the new one is
right.
"""

import hashlib
import json

from repro.harness import sweep as sweep_module
from repro.harness.experiments import BENCHMARK_ORDER, DESIGNS, figure9
from repro.harness.sweep import (ParallelExecutor, RunSpec,
                                 build_spec_system)

PINNED_DIGEST = (
    "0a94e3c6afdd467cbd32c8d29e8dc0b86878f62ee3e97a6bbde5c98c8ab4e2e8")

SCALE = 0.05
SEED = 42
THREADS = 8


def _cell_record(spec: RunSpec, system, result) -> list:
    return [spec.benchmark, spec.design, result.to_dict(),
            system.state_fingerprint(),
            system.env.capture_state()["sequence"]]


def _digest(records) -> str:
    blob = json.dumps(sorted(records, key=lambda r: (r[0], r[1])),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_fig9_grid_through_serial_executor(monkeypatch):
    records = []

    def execute(spec, tracer=None, metrics=None):
        system = build_spec_system(spec, tracer=tracer, metrics=metrics)
        result = system.run()
        records.append(_cell_record(spec, system, result))
        return result

    monkeypatch.setattr(sweep_module, "_execute_spec", execute)
    figure9(n_threads=THREADS, scale=SCALE, seed=SEED,
            executor=ParallelExecutor(jobs=1, cache_dir=None))
    assert len(records) == len(BENCHMARK_ORDER) * len(DESIGNS)
    assert _digest(records) == PINNED_DIGEST


def test_fig9_grid_with_fresh_builds(monkeypatch):
    from repro.harness.experiments import _fases
    records = []
    for benchmark in BENCHMARK_ORDER:
        for design in DESIGNS:
            monkeypatch.setattr(sweep_module, "_LAST_BUILT", None,
                                raising=False)
            spec = RunSpec(benchmark=benchmark, design=design,
                           n_threads=THREADS, seed=SEED,
                           fases_per_thread=_fases(benchmark, SCALE))
            system = build_spec_system(spec)
            records.append(_cell_record(spec, system, system.run()))
    assert _digest(records) == PINNED_DIGEST


# The Figure 9 grid reaches neither ``PMCComplex.read_block`` nor
# StrandWeaver's block drains, so a second digest pins the cells that
# do: StrandWeaver on one controller and every Figure 9 design on two
# block-interleaved controllers, over all eight benchmarks (40 cells),
# each with a fresh build.
PINNED_EXTRA_DIGEST = (
    "40702abe74ffc56483c99a0e6283edb899d339e7f11967a394570a96b30ab830")

EXTRA_CELLS = (("StrandWeaver", {}),) + tuple(
    (design, {"n_pm_controllers": 2}) for design in DESIGNS)


def test_strandweaver_and_two_controller_cells(monkeypatch):
    from repro.harness.experiments import _fases
    records = []
    for benchmark in BENCHMARK_ORDER:
        for design, overrides in EXTRA_CELLS:
            monkeypatch.setattr(sweep_module, "_LAST_BUILT", None,
                                raising=False)
            spec = RunSpec(benchmark=benchmark, design=design,
                           n_threads=THREADS, seed=SEED,
                           fases_per_thread=_fases(benchmark, SCALE),
                           config_overrides=overrides)
            system = build_spec_system(spec)
            record = _cell_record(spec, system, system.run())
            record[1] += f"/pmcs={system.config.n_pm_controllers}"
            records.append(record)
    assert len(records) == len(BENCHMARK_ORDER) * len(EXTRA_CELLS)
    assert _digest(records) == PINNED_EXTRA_DIGEST


# Figure 10's 32- and 64-core systems, where sharer sets and the
# speculation buffer's overflow pause are busiest: the four Figure 9
# designs on four benchmarks at scale 0.02 (32 cells), each with a
# fresh build.
PINNED_CORES_DIGEST = (
    "d987b90b317a7c33ec2aee633d3703bafcb03dc8585327aaaf0c1844aa71b3f6")

CORES_BENCHMARKS = ("array_swaps", "queue", "hashmap", "tatp")
CORE_COUNTS = (32, 64)
CORES_SCALE = 0.02


def test_figure10_core_counts(monkeypatch):
    from repro.harness.experiments import _fases
    records = []
    for cores in CORE_COUNTS:
        for benchmark in CORES_BENCHMARKS:
            for design in DESIGNS:
                monkeypatch.setattr(sweep_module, "_LAST_BUILT", None,
                                    raising=False)
                spec = RunSpec(benchmark=benchmark, design=design,
                               n_threads=cores, seed=SEED,
                               fases_per_thread=_fases(benchmark,
                                                       CORES_SCALE))
                system = build_spec_system(spec)
                record = _cell_record(spec, system, system.run())
                record[1] += f"/cores={cores}"
                records.append(record)
    assert len(records) == (len(CORE_COUNTS) * len(CORES_BENCHMARKS)
                            * len(DESIGNS))
    assert _digest(records) == PINNED_CORES_DIGEST
